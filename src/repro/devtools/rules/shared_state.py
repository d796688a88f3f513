"""RPR008 — shared-state hazards: worker code must not write globals.

A module-level mutable global written from worker-reachable code is a
fork-divergence hazard today (each pool worker mutates its own copy-on-
write copy, the parent never sees it — or worse, ``fork`` timing makes
it *look* shared in tests) and a silent wrong answer on N remote
machines tomorrow.  The sanctioned channels for cross-process state are
architectural, not ad hoc:

* results flow back through the engine cache / ``RunStore`` (instance
  state returned by value — never module globals);
* worker-side traces flow through the ``worker_recorder`` sidecar files
  (:data:`SANCTIONED_GLOBAL_WRITES` exempts the ``repro.obs.trace``
  registries that *implement* that channel);
* scenario registration happens at **import time** (the module body
  pseudo-node is not worker-reachable, so re-import registration in a
  spawned worker is automatically legal — RPR004 already polices that
  it stays at import time).

Detected write shapes, for globals whose module-level initialiser is a
mutable container (dict/list/set literal or comprehension, or a
``dict()``/``list()``/``set()``/``defaultdict()``/… constructor):

* rebinding under a ``global`` declaration (``global X; X = …``,
  ``X += …``);
* item assignment (``X[k] = v``, ``del X[k]``, ``X[k] += v``);
* mutator method calls (``X.append(…)``, ``X.update(…)``, …);
* the same shapes through an imported alias
  (``from repro.noise.scenarios import _REGISTRY; _REGISTRY[k] = v``).

Names rebound locally without a ``global`` declaration are locals and
are skipped.

A ``functools.lru_cache`` / ``functools.cache`` decorator on a
worker-reachable function is the same hazard in disguise: the cache is
module-level state that every worker fills on its own.  Such memos are
flagged unless listed in :data:`SANCTIONED_MEMOS`, the per-process
memos whose value is a pure function of their (content-compared)
arguments.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.core import (
    Violation,
    canonical_name,
    dotted_name,
    import_aliases,
)
from repro.devtools.graph import (
    MODULE_BODY,
    FunctionInfo,
    GraphRule,
    ModuleInfo,
    ProjectGraph,
    _function_body_nodes,
)

#: Constructors producing mutable containers.
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque", "ChainMap",
})

#: Literal/comprehension nodes producing mutable containers.
MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp,
                    ast.ListComp, ast.SetComp)

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "appendleft", "sort",
    "reverse",
})

#: (module, global) pairs that ARE the sanctioned cross-process
#: channels: the trace-recorder registries behind ``worker_recorder``,
#: and the per-process profiling-mode cache (read-mostly memo of an
#: environment variable — each worker caching its own parse is the
#: intended behaviour, not a divergence hazard).
SANCTIONED_GLOBAL_WRITES = frozenset({
    ("repro.obs.trace", "_ACTIVE"),
    ("repro.obs.trace", "_RECORDERS"),
    ("repro.obs.trace", "_WORKER_RECORDERS"),
    ("repro.obs.profile", "_MODE_CACHE"),
})


#: Decorators that attach a module-level cache to a function.
MEMO_DECORATORS = frozenset({"functools.lru_cache", "functools.cache"})

#: (module, function) memos sanctioned in worker-reachable code: pure
#: functions of their arguments, compared by content, so a worker that
#: fills its own copy computes exactly what the parent would.  The
#: statevector distribution memo, the native-lowering stage memo and
#: the LinQ / QCCD compile stage memos.
SANCTIONED_MEMOS = frozenset({
    ("repro.sim.stochastic", "_ideal_cumulative"),
    ("repro.compiler.decompose", "_lowered_native"),
    ("repro.exec.backends", "_linq_memo"),
    ("repro.exec.backends", "_qccd_memo"),
})


def _memo_decorator(fn: FunctionInfo, aliases: dict[str, str]) -> str | None:
    """The canonical memo decorator on *fn*, if it has one."""
    for decorator in getattr(fn.node, "decorator_list", ()):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        canonical = canonical_name(decorator, aliases)
        if canonical in MEMO_DECORATORS:
            return canonical
    return None


def _is_mutable_initialiser(value: ast.expr) -> bool:
    if isinstance(value, MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        ctor = dotted_name(value.func)
        if ctor is not None and \
                ctor.rsplit(".", 1)[-1] in MUTABLE_CONSTRUCTORS:
            return True
    return False


def _mutable_globals(module: ModuleInfo) -> set[str]:
    return {
        name for name, value in module.module_globals.items()
        if _is_mutable_initialiser(value)
    }


def _local_rebinds(fn: FunctionInfo, global_decls: set[str]) -> set[str]:
    """Names bound as plain locals (no ``global``) inside *fn*."""
    locals_: set[str] = set()

    def bind(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            locals_.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element)
        elif isinstance(target, ast.Starred):
            bind(target.value)

    for node in _function_body_nodes(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                               ast.NamedExpr)):
            bind(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars)
        elif isinstance(node, ast.comprehension):
            bind(node.target)
    return locals_ - global_decls


class SharedStateRule(GraphRule):
    rule_id = "RPR008"
    description = (
        "shared-state hazards: module-level mutable globals must not "
        "be written inside worker-reachable functions (route results "
        "through the engine cache/RunStore, traces through "
        "worker_recorder sidecars, registration through import time)"
    )

    def check_project(self, project: ProjectGraph) -> Iterable[Violation]:
        mutable: dict[str, set[str]] = {
            name: _mutable_globals(module)
            for name, module in project.modules.items()
        }
        aliases: dict[str, dict[str, str]] = {}
        for function_id in sorted(project.worker_reachable):
            fn = project.functions[function_id]
            if fn.qualname == MODULE_BODY:
                continue
            module = project.modules[fn.module]
            if fn.module not in aliases:
                aliases[fn.module] = import_aliases(module.ctx.tree)
            decorator = _memo_decorator(fn, aliases[fn.module])
            if (decorator is not None
                    and (fn.module, fn.qualname) not in SANCTIONED_MEMOS):
                yield self.violation(
                    module.ctx, fn.node,
                    f"worker-reachable function {fn.qualname}() is "
                    f"memoised with {decorator}: the cache is "
                    f"module-level state each worker process fills on "
                    f"its own; pass the value explicitly, or make it a "
                    f"sanctioned channel in SANCTIONED_MEMOS with a "
                    f"corpus pin",
                )
            yield from self._check_function(module, fn, mutable)

    def _check_function(
        self, module: ModuleInfo, fn: FunctionInfo,
        mutable: dict[str, set[str]],
    ) -> Iterable[Violation]:
        global_decls: set[str] = set()
        for node in _function_body_nodes(fn):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)
        local_names = _local_rebinds(fn, global_decls)

        def origin(name: str) -> tuple[str, str] | None:
            """(module, global) a name refers to, if a mutable global."""
            if name in local_names:
                return None
            if name in mutable.get(fn.module, ()):
                return (fn.module, name)
            binding = module.symbols.get(name)
            if (binding is not None and binding[0] == "symbol"
                    and binding[2] in mutable.get(binding[1], ())):
                return (binding[1], binding[2])
            return None

        flagged: set[tuple[str, str, int]] = set()

        def report(node: ast.AST, name: str, owner: tuple[str, str],
                   how: str) -> Violation | None:
            if owner in SANCTIONED_GLOBAL_WRITES:
                return None
            key = (*owner, getattr(node, "lineno", 0))
            if key in flagged:
                return None
            flagged.add(key)
            owner_module, owner_name = owner
            return self.violation(
                module.ctx, node,
                f"worker-reachable function {fn.qualname}() {how} "
                f"module-level mutable global "
                f"{owner_module}.{owner_name}: the write stays in the "
                f"worker process (fork) or machine (remote) and is a "
                f"shared-state race; return the data and merge it in "
                f"the parent, or route it through the engine "
                f"cache/RunStore or a worker_recorder sidecar",
            )

        for node in _function_body_nodes(fn):
            found: list[Violation | None] = []
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id in global_decls):
                        owner = origin(target.id)
                        if owner is not None:
                            found.append(report(node, target.id, owner,
                                                "rebinds"))
                    elif isinstance(target, ast.Subscript) and \
                            isinstance(target.value, ast.Name):
                        owner = origin(target.value.id)
                        if owner is not None:
                            found.append(report(
                                node, target.value.id, owner,
                                "writes an item of"))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and \
                            isinstance(target.value, ast.Name):
                        owner = origin(target.value.id)
                        if owner is not None:
                            found.append(report(
                                node, target.value.id, owner,
                                "deletes an item of"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATOR_METHODS
                  and isinstance(node.func.value, ast.Name)):
                owner = origin(node.func.value.id)
                if owner is not None:
                    found.append(report(
                        node, node.func.value.id, owner,
                        f"calls .{node.func.attr}() on",
                    ))
            yield from (v for v in found if v is not None)
