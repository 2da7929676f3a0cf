"""Iteration-level continuous-batching engine.

:func:`run` simulates a workload under a batching policy and returns its
trace records, gathered as columns from the engine clock, and the iteration
log; the loop lives in ``pyloop`` and the affine cost model in ``config``.
"""

from __future__ import annotations

from .config import EngineConfig, iteration_time
from .pyloop import run


# Kept for perfbench/run.py, which labels its result sets with it.
def default_backend() -> str:
    return "python"


__all__ = [
    "EngineConfig",
    "iteration_time",
    "run",
]
