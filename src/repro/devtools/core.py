"""Rule engine of the repro invariant linter.

The linter is a small static-analysis framework: every file is parsed
once into an :mod:`ast` tree plus a comment stream, wrapped in a
:class:`FileContext`, and handed to each enabled :class:`Rule`.  Rules
never import or execute the code they inspect — everything is pure AST
and token analysis, so linting a file with missing optional dependencies
(or deliberately broken corpus code) is safe.

Two comment directives drive the engine:

``# repro-lint: disable=RPR001[,RPR002] -- <justification>``
    Suppresses the named rules on that line (or the line directly
    below, for comments placed above a long call).  The justification
    text after ``--`` is **required**: a disable without one is rejected
    — the original violation stays active and the malformed directive
    is reported as :data:`META_RULE`.

``# repro-lint: treat-as=<relative/path.py>``
    Overrides the project-relative path used for rule scoping.  This is
    how the self-test corpus under ``tests/lint_corpus/`` exercises
    path-scoped rules (e.g. a corpus file pretending to live in
    ``src/repro/analysis/``) without actually living there.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

#: Rule id reserved for the linter's own hygiene findings: syntax errors
#: in scanned files, malformed suppressions, unknown rule ids in a
#: ``disable=`` list.  RPR000 findings can never be suppressed.
META_RULE = "RPR000"

#: Comment grammar: ``# repro-lint: disable=RPR001,RPR002 -- why``.
_DIRECTIVE_RE = re.compile(r"#\s*repro-lint:\s*(?P<body>.*)$")
_DISABLE_RE = re.compile(
    r"disable=(?P<rules>[A-Z0-9,\s]+?)(?:\s+--\s*(?P<why>.+))?$"
)
_TREAT_AS_RE = re.compile(r"treat-as=(?P<path>\S+)$")

#: Directory names never descended into when expanding directory inputs.
#: ``lint_corpus`` holds deliberately-violating self-test fixtures; they
#: are linted only when named explicitly (as the corpus tests do).
SKIP_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".venv", "node_modules", "lint_corpus"}
)


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location and a human-readable message."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.suppressed:
            text += f"  [suppressed: {self.justification}]"
        return text

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``disable=`` directive attached to one source line."""

    line: int
    rules: tuple[str, ...]
    justification: str


@dataclass
class FileContext:
    """Everything a rule may inspect about one file.

    ``rel`` is the project-root-relative posix path used for all rule
    scoping decisions; a ``treat-as`` directive replaces it, so corpus
    files can impersonate any location in the tree.  ``real_rel`` always
    keeps the true path for reporting.
    """

    path: Path
    root: Path
    rel: str
    real_rel: str
    source: str
    tree: ast.Module
    suppressions: dict[int, list[Suppression]] = field(default_factory=dict)

    def in_dir(self, *prefixes: str) -> bool:
        """True when the scoping path lives under any of *prefixes*."""
        return any(self.rel.startswith(prefix) for prefix in prefixes)

    def is_file(self, *names: str) -> bool:
        """True when the scoping path is exactly one of *names*."""
        return self.rel in names

    def is_test_code(self) -> bool:
        """True for pytest files: ``tests/``, ``test_*.py``, conftest."""
        basename = self.rel.rsplit("/", 1)[-1]
        return (self.rel.startswith("tests/")
                or basename.startswith("test_")
                or basename == "conftest.py")


class Rule:
    """Base class every lint rule derives from.

    Subclasses set :attr:`rule_id` / :attr:`description`, narrow
    :meth:`applies_to` when they are path-scoped, and yield
    :class:`Violation` objects from :meth:`check`.
    """

    rule_id: str = ""
    description: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST,
                  message: str) -> Violation:
        """A finding anchored at *node* (reported at the real path)."""
        return Violation(
            rule=self.rule_id,
            path=ctx.real_rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


# ----------------------------------------------------------------------
# Import-alias resolution shared by the rules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the canonical dotted path they import.

    ``import numpy as np`` yields ``{"np": "numpy"}``; ``from time
    import time`` yields ``{"time": "time.time"}``.  Relative imports
    are skipped — the rules only canonicalise stdlib / third-party
    call sites.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".", 1)[0]
                canonical = name.name if name.asname else local
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def canonical_call_name(node: ast.Call,
                        aliases: dict[str, str]) -> str | None:
    """The fully-qualified dotted name a call resolves to, if static.

    ``np.random.default_rng(7)`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``.  Calls on computed expressions (method
    calls on locals, subscripted lookups) return ``None``.
    """
    return canonical_name(node.func, aliases)


def canonical_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The fully-qualified dotted name a Name/Attribute chain resolves
    to through *aliases*, or ``None`` for any other expression."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, tail = name.partition(".")
    resolved = aliases.get(head)
    if resolved is None:
        return name
    return f"{resolved}.{tail}" if tail else resolved


# ----------------------------------------------------------------------
# File loading: comments, directives, suppressions
# ----------------------------------------------------------------------
def _comment_tokens(source: str) -> list[tuple[int, str]]:
    """(line, text) for every comment; tolerant of tokenize failures."""
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the ast.parse error path reports the file itself
    return comments


def parse_directives(
    source: str, real_rel: str,
) -> tuple[dict[int, list[Suppression]], str | None, list[Violation]]:
    """Extract suppressions and the treat-as override from comments.

    Returns ``(suppressions by line, treat_as path or None, meta
    violations)`` — malformed directives (no justification, unparsable
    body) become unsuppressable :data:`META_RULE` findings.
    """
    suppressions: dict[int, list[Suppression]] = {}
    treat_as: str | None = None
    meta: list[Violation] = []
    if "repro-lint" not in source:
        # fast path: most files carry no directive, and the substring
        # probe is ~100x cheaper than a full tokenize pass
        return suppressions, treat_as, meta
    for line, text in _comment_tokens(source):
        match = _DIRECTIVE_RE.search(text)
        if match is None:
            continue
        body = match.group("body").strip()
        treat = _TREAT_AS_RE.match(body)
        if treat is not None:
            treat_as = treat.group("path")
            continue
        disable = _DISABLE_RE.match(body)
        if disable is None:
            meta.append(Violation(
                rule=META_RULE, path=real_rel, line=line, col=1,
                message=f"unrecognised repro-lint directive {body!r} "
                        f"(expected 'disable=RULE[,RULE] -- justification' "
                        f"or 'treat-as=path')",
            ))
            continue
        rules = tuple(
            rule.strip() for rule in disable.group("rules").split(",")
            if rule.strip()
        )
        justification = (disable.group("why") or "").strip()
        if META_RULE in rules:
            meta.append(Violation(
                rule=META_RULE, path=real_rel, line=line, col=1,
                message=f"{META_RULE} (linter hygiene) cannot be suppressed",
            ))
            continue
        if not justification:
            meta.append(Violation(
                rule=META_RULE, path=real_rel, line=line, col=1,
                message="suppression needs a justification: "
                        "'# repro-lint: disable="
                        + ",".join(rules) + " -- <why this is safe>'",
            ))
            continue  # rejected: the original violation stays active
        suppressions.setdefault(line, []).append(
            Suppression(line=line, rules=rules, justification=justification)
        )
    return suppressions, treat_as, meta


def load_context(path: Path, root: Path) -> tuple[FileContext | None,
                                                  list[Violation]]:
    """Parse *path* into a :class:`FileContext` (or a syntax finding)."""
    try:
        real_rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        real_rel = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, [Violation(rule=META_RULE, path=real_rel, line=1,
                                col=1, message=f"unreadable file: {exc}")]
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, [Violation(rule=META_RULE, path=real_rel,
                                line=exc.lineno or 1, col=1,
                                message=f"syntax error: {exc.msg}")]
    suppressions, treat_as, meta = parse_directives(source, real_rel)
    ctx = FileContext(path=path, root=root, rel=treat_as or real_rel,
                      real_rel=real_rel, source=source, tree=tree,
                      suppressions=suppressions)
    return ctx, meta


def apply_suppressions(ctx: FileContext,
                       violations: Iterable[Violation]) -> list[Violation]:
    """Mark findings covered by a same-line / previous-line disable."""
    out: list[Violation] = []
    for violation in violations:
        matched: Suppression | None = None
        for line in (violation.line, violation.line - 1):
            for suppression in ctx.suppressions.get(line, ()):
                if violation.rule in suppression.rules:
                    matched = suppression
                    break
            if matched is not None:
                break
        if matched is not None:
            violation = Violation(
                rule=violation.rule, path=violation.path,
                line=violation.line, col=violation.col,
                message=violation.message, suppressed=True,
                justification=matched.justification,
            )
        out.append(violation)
    return out


# ----------------------------------------------------------------------
# Running a rule set over a path set
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint run: every finding plus scan bookkeeping.

    ``rule_seconds`` is wall time per rule id (plus ``graph_build`` when
    the whole-program pass ran); ``file_counts`` is per-file
    active/suppressed totals.  Both feed the JSON ``profile`` section —
    the report stays byte-deterministic *except* for the timing values.
    ``graph`` holds the :class:`~repro.devtools.graph.ProjectGraph` when
    graph rules ran (for ``--graph-json``); it is not serialized here.
    """

    violations: list[Violation] = field(default_factory=list)
    files_scanned: int = 0
    rules: tuple[str, ...] = ()
    rule_seconds: dict[str, float] = field(default_factory=dict)
    file_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    graph: Any = None

    @property
    def active(self) -> list[Violation]:
        """Findings that actually fail the run (not suppressed)."""
        return [v for v in self.violations if not v.suppressed]

    @property
    def suppressed(self) -> list[Violation]:
        return [v for v in self.violations if v.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def to_json(self) -> dict:
        return {
            "version": 2,
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "active": len(self.active),
            "suppressed": len(self.suppressed),
            "violations": [v.to_json() for v in self.violations],
            "profile": {
                "rule_seconds": {
                    rule: round(seconds, 6)
                    for rule, seconds in sorted(self.rule_seconds.items())
                },
                "files": {
                    path: counts
                    for path, counts in sorted(self.file_counts.items())
                },
            },
        }


def find_project_root(start: Path) -> Path:
    """Walk up from *start* to the checkout root (``src/repro`` marker)."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if ((candidate / "src" / "repro").is_dir()
                or (candidate / ".git").exists()):
            return candidate
    return probe


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand file/directory inputs into the python files to lint.

    Directories are walked recursively, skipping :data:`SKIP_DIR_NAMES`;
    a path given explicitly as a file is always included (that is how
    the self-test corpus gets linted despite living in a skipped
    directory).  Missing paths raise ``FileNotFoundError``.
    """
    files: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in SKIP_DIR_NAMES for part in candidate.parts):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    files.append(candidate)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def run_lint(paths: Sequence[str | Path], *,
             rules: Sequence[Rule] | None = None,
             select: Sequence[str] | None = None,
             ignore: Sequence[str] | None = None,
             root: str | Path | None = None,
             graph: bool = False) -> LintReport:
    """Lint *paths* with the given (or registered) rule set.

    ``select`` keeps only the named rule ids, ``ignore`` drops the named
    ones; :data:`META_RULE` hygiene findings are always reported.
    Unknown ids in either list raise ``ValueError`` so a typo in CI
    cannot silently disable a gate.

    ``graph=True`` adds the whole-program rules (RPR006-RPR009): after
    the per-file pass, every scanned file that maps into the ``repro``
    package joins one :class:`~repro.devtools.graph.ProjectGraph` and
    each graph rule runs once over it.  Graph findings route through
    the suppression directives of the file they are anchored in,
    exactly like per-file findings.  Passing graph rules explicitly via
    ``rules`` also enables the pass.
    """
    from repro.devtools.rules import all_graph_rules, all_rules

    if rules is not None:
        chosen = list(rules)
    else:
        chosen = all_rules()
        if graph:
            chosen.extend(all_graph_rules())
    known = {rule.rule_id for rule in chosen} | {META_RULE}
    for requested in (*(select or ()), *(ignore or ())):
        if requested not in known:
            raise ValueError(
                f"unknown rule id {requested!r}; known: "
                + ", ".join(sorted(known))
            )
    if select:
        chosen = [rule for rule in chosen if rule.rule_id in set(select)]
    if ignore:
        chosen = [rule for rule in chosen if rule.rule_id not in set(ignore)]

    per_file_rules = [rule for rule in chosen
                      if not getattr(rule, "requires_graph", False)]
    graph_rules = [rule for rule in chosen
                   if getattr(rule, "requires_graph", False)]

    report = LintReport(rules=tuple(rule.rule_id for rule in chosen))
    timings = {rule.rule_id: 0.0 for rule in chosen}
    files = discover_files(paths)
    anchor = files[0] if files else Path.cwd()
    resolved_root = (Path(root) if root is not None
                     else find_project_root(anchor))
    contexts: dict[str, FileContext] = {}
    for path in files:
        ctx, meta = load_context(path, resolved_root)
        report.violations.extend(meta)  # never suppressable
        if ctx is None:
            continue
        report.files_scanned += 1
        contexts[ctx.real_rel] = ctx
        findings: list[Violation] = []
        for rule in per_file_rules:
            if rule.applies_to(ctx):
                started = time.perf_counter()
                found = list(rule.check(ctx))
                timings[rule.rule_id] += time.perf_counter() - started
                findings.extend(found)
        report.violations.extend(apply_suppressions(ctx, findings))

    if graph_rules:
        from repro.devtools.graph import build_graph

        started = time.perf_counter()
        project = build_graph(contexts.values())
        timings["graph_build"] = time.perf_counter() - started
        report.graph = project
        for rule in graph_rules:
            started = time.perf_counter()
            found = list(rule.check_project(project))
            timings[rule.rule_id] += time.perf_counter() - started
            by_path: dict[str, list[Violation]] = {}
            for violation in found:
                by_path.setdefault(violation.path, []).append(violation)
            for vpath in sorted(by_path):
                anchor_ctx = contexts.get(vpath)
                if anchor_ctx is not None:
                    report.violations.extend(
                        apply_suppressions(anchor_ctx, by_path[vpath])
                    )
                else:
                    report.violations.extend(by_path[vpath])

    report.rule_seconds = timings
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    for violation in report.violations:
        entry = report.file_counts.setdefault(
            violation.path, {"active": 0, "suppressed": 0}
        )
        entry["suppressed" if violation.suppressed else "active"] += 1
    return report
