"""Synchronous cycle-level simulation kernel.

The kernel models a fully synchronous digital system the way RTL does:

* every :class:`~repro.sim.component.Component` has a ``tick`` method that
  is invoked once per clock cycle and may only *stage* new values onto
  :class:`~repro.sim.channel.Wire` / :class:`~repro.sim.channel.FIFO`
  objects;
* after every component has ticked, the simulator *commits* all staged
  state in one step, which makes the kernel insensitive to component
  evaluation order — exactly like a bank of flip-flops on a clock edge.

A small scheduled-event facility (``Simulator.at`` / ``Simulator.after``)
models asynchronous control actions such as partial reconfiguration,
which in hardware are driven by a configuration port rather than the
user clock.

The kernel is activity-driven by default: components may return
:data:`SLEEP` (or a wake cycle) from ``tick`` to leave the hot loop
while idle, and only channels with staged writes are committed.  See
``repro.sim.engine`` for the fast path and its equivalence guarantee.
"""

from repro.sim.channel import FIFO, PulseWire, Wire
from repro.sim.component import Channel, Component, QuiescenceHint
from repro.sim.engine import (
    ENGINE_ENV,
    ENGINES,
    SLEEP,
    KernelMetrics,
    SimError,
    Simulator,
    make_simulator,
    resolve_engine,
)
from repro.sim.rng import make_rng, spawn_rngs
from repro.sim.stats import (
    Counter,
    CounterSnapshot,
    Histogram,
    StatsRegistry,
    StreamingHistogram,
    TimeSeries,
)
from repro.sim.trace import SpanEvent, TraceEvent, Tracer

__all__ = [
    "Channel",
    "Component",
    "ENGINES",
    "ENGINE_ENV",
    "make_simulator",
    "resolve_engine",
    "Counter",
    "CounterSnapshot",
    "FIFO",
    "Histogram",
    "KernelMetrics",
    "PulseWire",
    "QuiescenceHint",
    "SLEEP",
    "SimError",
    "Simulator",
    "SpanEvent",
    "StatsRegistry",
    "StreamingHistogram",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "Wire",
    "make_rng",
    "spawn_rngs",
]
