"""Struct-of-arrays (SoA) backend for the synchronous kernel.

``repro.sim.vec`` holds the vectorized counterpart of the object
kernel: a :class:`VecSimulator` on which architectures install their
"compiled tick" batch kernels, the list-compatible SoA stores those
kernels swap in (link occupancy intervals, timed event queues), and
the engine-selection helpers behind ``repro sweep --engine=vec``.

Only kernels that pay for themselves on the dense busy path exist:
DyNoC/StaticMesh and the shared bus.  A kernel installs only on a
vectorizing simulator with no telemetry attached (telemetry samples
every cycle, which defeats stretch batching); every other component —
BUS-COM, RMBoC, CoNoChi, and all components of an observed run — runs
its object tick inside the same cycle loop (hybrid execution).

The backend is a pure optimization with the same golden-equivalence
guarantee as the activity-driven fast path: a vec run is bit-identical
to an object run in :meth:`~repro.sim.stats.StatsRegistry.snapshot`
and in trace fingerprints (see ``tests/sim/test_vec_equivalence.py``).

numpy is optional at import time: ``pip install repro[fast]`` pulls it
in explicitly, and :data:`HAVE_NUMPY`/:func:`require_numpy` gate every
array path so that the pure-Python object kernel keeps working when it
is absent (``VecSimulator`` then simply never vectorizes).
"""

from __future__ import annotations

try:  # optional [fast] extra — see pyproject.toml
    import numpy as _np  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via tests' import stub
    HAVE_NUMPY = False


def require_numpy(feature: str = "the vec engine") -> None:
    """Raise a clean, actionable ImportError when numpy is missing."""
    if not HAVE_NUMPY:
        raise ImportError(
            f"{feature} needs numpy, which is not installed. "
            f"Install the fast extra (`pip install repro[fast]`) or plain "
            f"`pip install numpy`; without it the pure-Python object "
            f"kernel (--engine=object) remains fully functional."
        )


from repro.sim.vec.engine import (  # noqa: E402
    ENGINE_ENV,
    ENGINES,
    VecSimulator,
    engine_default,
    make_simulator,
)
from repro.sim.vec.kernels import BatchKernel  # noqa: E402
from repro.sim.vec.store import EventQueue, IntervalSet  # noqa: E402

__all__ = [
    "BatchKernel",
    "ENGINE_ENV",
    "ENGINES",
    "EventQueue",
    "HAVE_NUMPY",
    "IntervalSet",
    "VecSimulator",
    "engine_default",
    "make_simulator",
    "require_numpy",
]
