# repro-lint: treat-as=src/repro/exec/backends.py
"""RPR008 positives: unsanctioned memos on worker-reachable functions.

Impersonates ``repro.exec.backends`` so ``execute_spec`` is a worker
root.  Each memo below is a module-level cache that every worker fills
on its own; none is on the sanctioned list, so each fires once,
whichever way ``functools`` is imported.
"""

from __future__ import annotations

import functools
import functools as ft
from functools import lru_cache


@lru_cache(maxsize=1)
def _compile_memo(key: str) -> str:
    # RPR008: lru_cache through a from-import
    return key.upper()


@functools.cache
def _native_memo(key: str) -> str:
    # RPR008: bare functools.cache
    return key.lower()


@ft.lru_cache
def _sampler_memo(key: str) -> str:
    # RPR008: lru_cache through a module alias, without a call
    return key.strip()


def execute_spec(spec: object, key: str) -> object:
    return (_compile_memo(key), _native_memo(key), _sampler_memo(key), spec)
