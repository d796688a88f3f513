# repro-lint: treat-as=src/repro/exec/backends.py
"""RPR008 negatives: memos the rule must leave alone.

Impersonates ``repro.exec.backends``.  ``_linq_memo`` and ``_qccd_memo``
are on the sanctioned list (the real module's compile stage memos); the
driver-side memo is not reachable from ``execute_spec``; and a
decorator that merely shares a name with ``functools.cache`` is not a
memo.
"""

from __future__ import annotations

from functools import lru_cache


def cache(fn):
    return fn


@lru_cache(maxsize=1)
def _linq_memo(key: str) -> str:
    return key.upper()


@lru_cache(maxsize=1)
def _qccd_memo(key: str) -> str:
    return key.lower()


@cache
def _plain(key: str) -> str:
    return key.strip()


@lru_cache(maxsize=None)
def driver_table(width: int) -> tuple[int, ...]:
    # only the parent process calls this: not worker-reachable
    return tuple(range(width))


def execute_spec(spec: object, key: str) -> object:
    return (_linq_memo(key), _qccd_memo(key), _plain(key), spec)


def plan(width: int) -> tuple[int, ...]:
    return driver_table(width)
