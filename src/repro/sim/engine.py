"""The synchronous simulator core.

The :class:`Simulator` advances a global clock. Each cycle proceeds in
three strictly ordered phases:

1. **events** — callbacks scheduled for this cycle fire (configuration
   port actions, workload phase changes, test instrumentation);
2. **tick** — every *runnable* registered component's ``tick`` runs;
   components read only *committed* state and stage writes;
3. **commit** — sequential elements with staged state latch it.

Because components see only committed state, the result of a cycle never
depends on component registration order; this is asserted by the
property tests in ``tests/sim/test_engine_properties.py``.

Activity-driven fast path
-------------------------

By default the kernel is *activity-driven*: a component whose ``tick``
returns a quiescence hint (:data:`SLEEP` or a future wake cycle) leaves
the hot tick loop until it is woken again — by a watched channel being
driven/pushed, by an explicit :meth:`Component.wake`, or by its timed
wake coming due.  Likewise the commit phase walks only the *dirty set*
of elements with staged writes instead of every registered sequential,
and :meth:`Simulator.run` fast-forwards the clock over fully quiescent
stretches straight to the next scheduled event or timed wake.

The fast path is a pure optimization with a golden-equivalence
guarantee (see ``tests/sim/test_fastpath_equivalence.py``): a model
obeying the quiescence contract — *a tick while quiescent is an
observable no-op, and spurious wake-ups are harmless* — produces
bit-identical cycle counts and statistics with the fast path on or
off.  Disable it for debugging with ``Simulator(fast_path=False)`` or
``REPRO_SIM_FASTPATH=0`` in the environment.
"""

from __future__ import annotations

import heapq
import itertools
import os
from bisect import insort
from heapq import heappop, heappush
from contextlib import contextmanager
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.sim.stats import StatsRegistry

#: environment switch for the activity-driven fast path ("0" disables)
FASTPATH_ENV = "REPRO_SIM_FASTPATH"

#: environment switch for the runtime contract sanitizer ("1" enables;
#: "race"/"2" also arms the race detector, "record" its non-raising mode)
SANITIZE_ENV = "REPRO_SIM_SANITIZE"

#: environment switch for the wall-clock profiler ("1" enables)
PROFILE_ENV = "REPRO_SIM_PROFILE"

#: environment switch for the default engine name ("object" or "vec")
ENGINE_ENV = "REPRO_SIM_ENGINE"

#: recognised engine names.  Both build the same :class:`Simulator`;
#: ``"vec"`` stays a valid, ledger-recorded name for callers and run
#: records that pass it.
ENGINES: Tuple[str, ...] = ("object", "vec")


def fastpath_default() -> bool:
    """The fast-path setting used when ``Simulator(fast_path=None)``."""
    return os.environ.get(FASTPATH_ENV, "1").lower() not in (
        "0", "false", "off", "no",
    )


def sanitize_default() -> object:
    """The sanitizer setting used when ``Simulator(sanitize=None)``.

    ``REPRO_SIM_SANITIZE=1`` enables the contract sanitizer
    (SAN001–SAN003); ``=race`` (or ``2``) additionally arms the race
    detector (SAN004/SAN005, see :mod:`repro.lint.runtime`);
    ``=record`` arms it in non-raising record mode.
    """
    raw = os.environ.get(SANITIZE_ENV, "0").lower()
    if raw in ("race", "2"):
        return "race"
    if raw == "record":
        return "record"
    return raw in ("1", "true", "on", "yes")


def profile_default() -> bool:
    """The profiler setting used when ``Simulator(profile=None)``."""
    return os.environ.get(PROFILE_ENV, "0").lower() in (
        "1", "true", "on", "yes",
    )


#: hook called with every newly constructed Simulator (or None).
#: Installed by :class:`repro.obs.session.ObservationSession` so the
#: ``repro trace`` / ``repro profile`` CLI can observe simulators built
#: deep inside experiment harnesses without threading parameters through.
_NEW_SIM_HOOK: Optional[Callable[["Simulator"], None]] = None


def set_new_sim_hook(
    hook: Optional[Callable[["Simulator"], None]],
) -> Optional[Callable[["Simulator"], None]]:
    """Install ``hook`` (None to clear); returns the previous hook."""
    global _NEW_SIM_HOOK
    prev = _NEW_SIM_HOOK
    _NEW_SIM_HOOK = hook
    return prev


#: indices into :attr:`KernelMetrics.wakes` (see docs/kernel.md)
WAKE_TIMED, WAKE_CHANNEL, WAKE_EXPLICIT, WAKE_PENDING = range(4)

WAKE_REASONS = ("timed", "channel", "explicit", "pending")


class KernelMetrics:
    """Scheduler self-metrics: what the activity-driven kernel did.

    These describe the *kernel that ran* — wakes, sleeps, fast-forward
    jumps, dirty-set commit sizes, tick counts — so they legitimately
    differ between ``fast_path=True`` and ``fast_path=False`` runs of
    the same model.  They are therefore kept out of
    :meth:`StatsRegistry.snapshot` (the golden-equivalence comparator)
    and exported separately (see :mod:`repro.obs`).

    ``cycles_stepped`` and ``ticks_total`` are *derived* totals: to keep
    the hot tick loop free of per-cycle accounting they are recomputed
    from the clock and the per-component tick counters whenever the
    metrics are read through :attr:`Simulator.kmetrics`.
    """

    __slots__ = ("wakes", "sleeps", "ff_jumps", "ff_cycles_skipped",
                 "commit_batches", "commit_elements", "commit_max",
                 "cycles_stepped", "ticks_total", "retired_ticks")

    def __init__(self) -> None:
        # wake transitions (asleep -> runnable) by reason index
        self.wakes = [0, 0, 0, 0]
        self.sleeps = 0
        self.ff_jumps = 0
        self.ff_cycles_skipped = 0
        self.commit_batches = 0
        self.commit_elements = 0
        self.commit_max = 0
        self.cycles_stepped = 0
        self.ticks_total = 0
        # tick counts harvested from components removed mid-run
        self.retired_ticks: Dict[str, int] = {}

    @property
    def wakes_total(self) -> int:
        return sum(self.wakes)

    def wakes_by_reason(self) -> Dict[str, int]:
        return dict(zip(WAKE_REASONS, self.wakes))

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form for exporters (stable key order)."""
        out: Dict[str, object] = {
            "cycles_stepped": self.cycles_stepped,
            "ticks_total": self.ticks_total,
            "sleeps": self.sleeps,
            "wakes_total": self.wakes_total,
            "ff_jumps": self.ff_jumps,
            "ff_cycles_skipped": self.ff_cycles_skipped,
            "commit_batches": self.commit_batches,
            "commit_elements": self.commit_elements,
            "commit_max": self.commit_max,
        }
        for reason, count in zip(WAKE_REASONS, self.wakes):
            out[f"wakes_{reason}"] = count
        return out


class _SleepForever:
    """Singleton quiescence hint: sleep until explicitly woken."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SLEEP"


#: returned from ``Component.tick`` to leave the tick loop until woken
SLEEP = _SleepForever()


class SimError(RuntimeError):
    """Raised for structural misuse of the simulation kernel."""


class Simulator:
    """A synchronous, deterministic cycle-level simulator.

    Parameters
    ----------
    name:
        Label used in error messages and reports.
    max_cycles:
        Hard safety bound; :meth:`run_until` raises :class:`SimError`
        when the bound is exceeded, which turns livelocks in a model
        into test failures instead of hangs.
    fast_path:
        Enable the activity-driven scheduler (sleep/wake, dirty-set
        commits, clock fast-forward).  ``None`` (the default) reads
        :data:`FASTPATH_ENV` and falls back to enabled.
    sanitize:
        Enable the runtime quiescence-contract sanitizer
        (:class:`repro.lint.runtime.Sanitizer`): channel primitives
        record per-component read/write sets and structural contract
        violations raise :class:`repro.lint.runtime.SanitizerError`.
        ``"race"`` additionally arms the per-cycle write-ownership race
        detector (SAN004/SAN005); ``"record"`` arms it in non-raising,
        violation-accumulating mode.  ``None`` (the default) reads
        :data:`SANITIZE_ENV` (``1``/``race``/``record``) and falls back
        to disabled.
    profile:
        Enable the opt-in wall-clock profiler
        (:class:`repro.obs.profile.Profiler`): each component tick,
        the event callbacks and the commit phase are timed with
        ``perf_counter`` and attributed by name.  Wall-time results are
        host-dependent and are never part of
        :meth:`StatsRegistry.snapshot`.  ``None`` (the default) reads
        :data:`PROFILE_ENV` and falls back to disabled, where the cost
        is a single ``is None`` test per step.
    """

    def __init__(self, name: str = "sim", max_cycles: int = 10_000_000,
                 fast_path: Optional[bool] = None,
                 sanitize: Union[bool, str, None] = None,
                 profile: Optional[bool] = None):
        self.name = name
        self.cycle = 0
        self.max_cycles = max_cycles
        self.stats = StatsRegistry()
        #: scheduler self-metrics (never part of stats.snapshot())
        self._kmetrics = KernelMetrics()
        #: optional repro.sim.trace.Tracer; emit() is a no-op while None
        self._tracer = None
        #: cheap guard for hot emit/span sites (kept in sync with tracer)
        self.tracing = False
        #: optional repro.obs.flows.FlowTelemetry collector
        self._telemetry = None
        #: cheap guard for hot telemetry sites (synced with telemetry),
        #: mirroring ``tracing``: instrumented fabrics test this single
        #: bool so the telemetry-off hot path is unchanged
        self.telemetering = False
        #: optional repro.obs.journey.JourneyRecorder
        self._journey = None
        #: cheap guard for hot journey stamp sites (synced with journey),
        #: mirroring ``tracing``/``telemetering``: a journeys-off run
        #: executes one dead boolean test per stamp site and stays
        #: bit-identical to pre-journey traces
        self.journeying = False
        #: optional repro.control.ControlLoop (set by the loop itself
        #: on attach; exporters discover the action log through it)
        self.control = None
        self.fast_path = fastpath_default() if fast_path is None else fast_path
        self.sanitize = sanitize_default() if sanitize is None else sanitize
        self.profile = profile_default() if profile is None else profile
        if self.profile:
            from repro.obs.profile import Profiler

            self._profiler: Optional["Profiler"] = Profiler()
        else:
            self._profiler = None
        #: the component whose tick is currently executing (None during
        #: events, commits, and outside step()) — read by the sanitizer
        self._ticking: Optional["Component"] = None
        if self.sanitize:
            from repro.lint.runtime import Sanitizer

            # sanitize=True -> contract checks only; sanitize="race" /
            # "record" additionally arms the SAN004/SAN005 race detector
            race = self.sanitize if isinstance(self.sanitize, str) else False
            self._sanitizer: Optional["Sanitizer"] = Sanitizer(self, race=race)
        else:
            self._sanitizer = None
        # True while neither sanitizer nor profiler is attached: step()
        # then takes a tick loop with no per-tick instrumentation checks
        self._plain = self._profiler is None and self._sanitizer is None
        self._components: List["Component"] = []
        self._sequentials: List[object] = []
        self._events: List[Tuple[int, int, Callable[["Simulator"], None]]] = []
        self._event_seq = itertools.count()
        self._order_seq = itertools.count()
        self._running = False
        self._stopped = False
        # activity-driven scheduling state: awake components in
        # registration order, timed wakes, and the per-cycle dirty set.
        self._runnable: List[Tuple[int, "Component"]] = []
        self._wake_heap: List[Tuple[int, int, "Component"]] = []
        self._dirty: List[object] = []
        # sequentials that do not participate in dirty tracking (no
        # ``_dirty_flag`` attribute) are committed every cycle.
        self._eager_sequentials: List[object] = []
        # components that sleep through busy stretches and back-fill
        # their per-cycle samples later (see defer_samples)
        self._deferred: List["Component"] = []
        # slow-path cycle counter: with the fast path off every
        # registered component ticks every cycle, so per-component tick
        # counts are derived as ``_slow_ticks - _tick_base`` instead of
        # paying a per-tick increment in the slow loop.
        self._slow_ticks = 0
        if _NEW_SIM_HOOK is not None:
            _NEW_SIM_HOOK(self)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The attached :class:`repro.sim.trace.Tracer` (or None)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self.tracing = tracer is not None

    @property
    def telemetry(self):
        """The attached :class:`repro.obs.flows.FlowTelemetry` (or None).

        Fabric instrumentation guards on :attr:`telemetering` exactly
        like trace sites guard on :attr:`tracing`::

            if sim.telemetering:
                sim.telemetry.record_flow(sim.cycle, src, dst, latency)

        Telemetry observes model state but never writes to
        :attr:`stats`, so a telemetry-on run stays bit-identical to a
        telemetry-off run in :meth:`StatsRegistry.snapshot`.
        """
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry) -> None:
        self._telemetry = telemetry
        self.telemetering = telemetry is not None
        if telemetry is not None:
            # telemetry samples every cycle: a component sleeping
            # through a stretch must resume its per-cycle tick now
            for component in self._deferred:
                component.wake()

    @property
    def journey(self):
        """The attached :class:`repro.obs.journey.JourneyRecorder` (or
        None).

        Hop stamp sites guard on :attr:`journeying` exactly like trace
        sites guard on :attr:`tracing`::

            if sim.journeying:
                sim.journey.stamp_to(msg.mid, "link_transit", arrival)

        Journeys observe model state but never write to :attr:`stats`,
        so a journeys-on run stays bit-identical to a journeys-off run
        in :meth:`StatsRegistry.snapshot`.
        """
        return self._journey

    @journey.setter
    def journey(self, journey) -> None:
        self._journey = journey
        self.journeying = journey is not None

    @property
    def profiler(self):
        """The attached :class:`repro.obs.profile.Profiler` (or None)."""
        return self._profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        self._profiler = profiler
        self._plain = profiler is None and self._sanitizer is None

    @property
    def sanitizer(self):
        """The attached :class:`repro.lint.runtime.Sanitizer` (or None)."""
        return self._sanitizer

    @sanitizer.setter
    def sanitizer(self, sanitizer) -> None:
        self._sanitizer = sanitizer
        self._plain = sanitizer is None and self._profiler is None

    @property
    def kmetrics(self) -> KernelMetrics:
        """Scheduler self-metrics (see :class:`KernelMetrics`).

        The derived totals — ``cycles_stepped`` (every cycle advance is
        either a stepped cycle or part of a fast-forward jump) and
        ``ticks_total`` (retired plus live per-component tick counts) —
        are synced here on access so the hot loop never maintains them.
        """
        m = self._kmetrics
        m.cycles_stepped = self.cycle - m.ff_cycles_skipped
        m.ticks_total = sum(self.tick_counts().values())
        return m

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def defer_samples(self, component: "Component") -> None:
        """Register a component that batches busy stretches.

        Such a component may sleep through cycles whose per-cycle
        samples follow from state it stashed at sleep time, and record
        them when it wakes.  Its ``flush_samples(now)`` must record
        every deferred sample through cycle ``now - 1``; the simulator
        calls it at the end of every :meth:`run` / :meth:`run_until`,
        so statistics read between runs equal the per-cycle path's.
        Attaching telemetry wakes it, because telemetry samples every
        cycle.  See docs/kernel.md, "Stretch batching".
        """
        self._deferred.append(component)

    def _flush_deferred(self) -> None:
        for component in self._deferred:
            component.flush_samples(self.cycle)

    def add(self, component: "Component") -> "Component":
        """Register a component; returns it for chaining."""
        from repro.sim.component import Component

        if not isinstance(component, Component):
            raise SimError(f"{component!r} is not a Component")
        self._components.append(component)
        component.bind(self)
        component._order = next(self._order_seq)
        component._asleep = False
        component._wake_at = None
        component._wake_reason = WAKE_TIMED
        component._pending_wake = None
        component._ticks = 0
        component._tick_base = self._slow_ticks
        # orders grow monotonically, so append preserves sorted order
        self._runnable.append((component._order, component))
        return component

    def add_all(self, components: Iterable["Component"]) -> None:
        for c in components:
            self.add(c)

    def remove(self, component: "Component") -> None:
        """Unregister a component (used when a module is reconfigured out)."""
        try:
            self._components.remove(component)
        except ValueError:
            raise SimError(f"{component.name!r} is not registered") from None
        if component._asleep:
            component._asleep = False
            component._wake_at = None
        else:
            try:
                self._runnable.remove((component._order, component))
            except ValueError:  # pragma: no cover - defensive
                pass
        component._pending_wake = None
        # keep the removed component's tick count observable
        total = (component._ticks
                 + self._slow_ticks - component._tick_base)
        if total:
            retired = self._kmetrics.retired_ticks
            retired[component.name] = (
                retired.get(component.name, 0) + total
            )
        if self._sanitizer is not None:
            self._sanitizer.forget(component)

    def register_sequential(self, element: object) -> None:
        """Register an object exposing ``_commit()`` to be latched each cycle.

        Elements exposing a ``_dirty_flag`` attribute (the channel
        primitives) are committed only on cycles where they staged a
        write; anything else is committed every cycle.
        """
        if not hasattr(element, "_commit"):
            raise SimError(f"{element!r} has no _commit method")
        self._sequentials.append(element)
        if not hasattr(element, "_dirty_flag"):
            self._eager_sequentials.append(element)

    def unregister_sequential(self, element: object) -> None:
        try:
            self._sequentials.remove(element)
        except ValueError:
            return
        try:
            self._eager_sequentials.remove(element)
        except ValueError:
            pass
        try:
            self._dirty.remove(element)
        except ValueError:
            pass

    @property
    def components(self) -> Tuple["Component", ...]:
        return tuple(self._components)

    # ------------------------------------------------------------------
    # sleep / wake scheduling
    # ------------------------------------------------------------------
    def wake(self, component: "Component") -> None:
        """Return a sleeping component to the runnable set (no-op when
        it is already awake)."""
        self._wake(component, WAKE_EXPLICIT)

    def _wake(self, component: "Component", reason: int) -> None:
        if not component._asleep:
            return
        component._asleep = False
        component._wake_at = None
        self._kmetrics.wakes[reason] += 1
        insort(self._runnable, (component._order, component))

    def wake_at(self, component: "Component", cycle: int) -> None:
        """Guarantee ``component`` is runnable at ``cycle``.

        Used by the channel primitives: a value staged in cycle *t*
        becomes visible at *t+1*, so subscribers are scheduled for
        *t+1*.  If the component is currently awake, the request is
        remembered so that a sleep hint returned *this same cycle*
        cannot overshoot it — otherwise a consumer could declare
        quiescence in the very cycle a producer staged data for it and
        never observe the write.
        """
        if component._asleep:
            if cycle <= self.cycle:
                self._wake(component, WAKE_CHANNEL)
            elif component._wake_at is None or cycle < component._wake_at:
                component._wake_at = cycle
                component._wake_reason = WAKE_CHANNEL
                heappush(self._wake_heap,
                         (cycle, component._order, component))
        else:
            pending = component._pending_wake
            if pending is None or cycle < pending:
                component._pending_wake = cycle

    def _request_sleep(self, component: "Component", hint: object) -> None:
        """Apply a quiescence hint returned by ``tick``."""
        if type(hint) is int:  # exact match first: the hot case
            wake_at: Optional[int] = hint
        elif hint is SLEEP:
            wake_at = None
        elif isinstance(hint, int) and not isinstance(hint, bool):
            wake_at = hint
        else:
            raise SimError(
                f"component {component.name!r}: invalid quiescence hint "
                f"{hint!r} (expected None, SLEEP or a wake cycle)"
            )
        # a watched channel staged data this cycle: the subscriber must
        # run when it becomes visible, whatever its own hint says
        reason = WAKE_TIMED
        pending = component._pending_wake
        if pending is not None:
            component._pending_wake = None
            if wake_at is None or pending < wake_at:
                wake_at = pending
                reason = WAKE_PENDING
        if wake_at is not None and wake_at <= self.cycle + 1:
            if reason == WAKE_PENDING:
                self._kmetrics.wakes[WAKE_PENDING] += 1
            return  # it would be woken for the very next cycle anyway
        try:
            self._runnable.remove((component._order, component))
        except ValueError:
            return  # removed from the simulator during this cycle
        component._asleep = True
        component._wake_at = wake_at
        self._kmetrics.sleeps += 1
        if wake_at is not None:
            component._wake_reason = reason
            heappush(self._wake_heap,
                     (wake_at, component._order, component))

    @property
    def quiescent(self) -> bool:
        """True when no component is runnable and nothing awaits commit —
        the clock may fast-forward to the next event or timed wake."""
        return (not self._runnable and not self._dirty
                and not self._eager_sequentials)

    def next_activity(self) -> Optional[int]:
        """Earliest future cycle with a scheduled event or a timed wake
        (None when neither exists)."""
        candidates = []
        if self._events:
            candidates.append(self._events[0][0])
        if self._wake_heap:
            candidates.append(self._wake_heap[0][0])
        return min(candidates) if candidates else None

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    def at(self, cycle: int, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn(sim)`` to run at the start of ``cycle``."""
        if cycle < self.cycle:
            raise SimError(
                f"cannot schedule event at cycle {cycle}; now at {self.cycle}"
            )
        heapq.heappush(self._events, (cycle, next(self._event_seq), fn))

    def after(self, delay: int, fn: Callable[["Simulator"], None]) -> None:
        """Schedule ``fn(sim)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        self.at(self.cycle + delay, fn)

    def stop(self) -> None:
        """Request the current ``run``/``run_until`` loop to end after this cycle."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """Whether the last run loop ended because of a :meth:`stop` request."""
        return self._stopped

    def emit(self, source: str, kind: str, **data: object) -> None:
        """Record a trace event when a tracer is attached (else no-op).

        Hot emit sites additionally guard on :attr:`tracing` so the
        keyword-argument dict is never built while tracing is off::

            if sim.tracing:
                sim.emit("dynoc", "route", mid=..., at=...)
        """
        if self._tracer is not None:
            self._tracer.record(self.cycle, source, kind, data)

    # ------------------------------------------------------------------
    # spans (duration events; see repro.sim.trace and repro.obs)
    # ------------------------------------------------------------------
    def span_begin(self, source: str, kind: str, key: Hashable = None,
                   **data: object) -> None:
        """Open a span at the current cycle; close it with
        :meth:`span_end` using the same (source, kind, key)."""
        if self._tracer is not None:
            self._tracer.begin_span(self.cycle, source, kind, key, data)

    def span_end(self, source: str, kind: str, key: Hashable = None,
                 **data: object) -> None:
        """Close an open span at the current cycle (no-op without a
        matching :meth:`span_begin`; the tracer counts the mismatch)."""
        if self._tracer is not None:
            self._tracer.end_span(self.cycle, source, kind, key, data)

    def span_event(self, source: str, kind: str, begin: int, end: int,
                   **data: object) -> None:
        """Record a span whose begin/end cycles are already known."""
        if self._tracer is not None:
            self._tracer.add_span(begin, end, source, kind, data)

    @contextmanager
    def span(self, source: str, kind: str, **data: object):
        """Context manager form: the span covers the cycles the body
        advanced the clock over (e.g. wrapping a ``run`` call)."""
        if self._tracer is None:
            yield
            return
        begin = self.cycle
        try:
            yield
        finally:
            self._tracer.add_span(begin, self.cycle, source, kind, data)

    # ------------------------------------------------------------------
    # kernel self-metrics helpers
    # ------------------------------------------------------------------
    def tick_counts(self) -> Dict[str, int]:
        """Per-component tick counts (registered plus removed ones)."""
        out = dict(self._kmetrics.retired_ticks)
        slow = self._slow_ticks
        for component in self._components:
            out[component.name] = (out.get(component.name, 0)
                                   + component._ticks
                                   + slow - component._tick_base)
        return out

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _tick_instrumented(self, component: "Component", sanitizer,
                           profiler) -> object:
        """Tick one component under the sanitizer and/or profiler."""
        if profiler is not None:
            t0 = perf_counter()
        if sanitizer is None:
            hint = component.tick(self)
        else:
            self._ticking = component
            try:
                hint = component.tick(self)
            finally:
                self._ticking = None
            sanitizer.on_tick_end(component, hint)
        if profiler is not None:
            profiler.add(component.name, perf_counter() - t0)
        return hint

    def step(self) -> None:
        """Advance the simulation by exactly one clock cycle."""
        if self._running:
            raise SimError("re-entrant step() — do not step from inside tick()")
        self._running = True
        try:
            cycle = self.cycle
            wakes = self._wake_heap
            while wakes and wakes[0][0] <= cycle:
                _, _, component = heappop(wakes)
                # lazy invalidation: the entry is live only if it still
                # matches the component's current sleep state
                if (component._asleep and component._wake_at is not None
                        and component._wake_at <= cycle):
                    component._asleep = False
                    component._wake_at = None
                    self._kmetrics.wakes[component._wake_reason] += 1
                    insort(self._runnable, (component._order, component))
            if self._plain:
                events = self._events
                while events and events[0][0] <= cycle:
                    _, _, fn = heappop(events)
                    fn(self)
                if self.fast_path:
                    # Snapshot: ticks may add/remove/wake components;
                    # changes take effect next cycle, matching
                    # reconfiguration semantics (removals still tick out
                    # this cycle).
                    if self._runnable:
                        request_sleep = self._request_sleep
                        for _, component in list(self._runnable):
                            component._ticks += 1
                            if (component._pending_wake is not None
                                    and component._pending_wake <= cycle):
                                component._pending_wake = None  # satisfied
                            hint = component.tick(self)
                            if hint is not None:
                                request_sleep(component, hint)
                    for element in self._eager_sequentials:
                        element._commit()
                    if self._dirty:
                        self._commit_dirty()
                else:
                    # _slow_ticks is bumped before the snapshot: a
                    # component added by an event callback ticks this
                    # cycle (it is in the snapshot), one added from a
                    # tick does not.
                    self._slow_ticks += 1
                    for component in list(self._components):
                        component.tick(self)
                    if self._dirty:
                        for element in self._dirty:
                            element._dirty_flag = False
                        self._dirty.clear()
                    for element in self._sequentials:
                        element._commit()
            else:
                self._step_instrumented(cycle)
            self.cycle += 1
        finally:
            self._running = False

    def _commit_dirty(self) -> None:
        """Commit and clear the dirty set (fast path, per-batch metrics)."""
        dirty, self._dirty = self._dirty, []
        metrics = self._kmetrics
        n = len(dirty)
        metrics.commit_batches += 1
        metrics.commit_elements += n
        if n > metrics.commit_max:
            metrics.commit_max = n
        for element in dirty:
            element._dirty_flag = False
            if element._commit():
                # e.g. a PulseWire that must self-clear
                element._mark_dirty()

    def _step_instrumented(self, cycle: int) -> None:
        """The events/tick/commit phases with sanitizer and/or profiler
        attached — split out so the plain hot path carries none of the
        instrumentation checks."""
        sanitizer = self._sanitizer
        profiler = self._profiler
        events = self._events
        if profiler is None:
            while events and events[0][0] <= cycle:
                _, _, fn = heappop(events)
                fn(self)
        else:
            while events and events[0][0] <= cycle:
                _, _, fn = heappop(events)
                t0 = perf_counter()
                fn(self)
                profiler.add("kernel.events", perf_counter() - t0)
        if self.fast_path:
            if self._runnable:
                for _, component in list(self._runnable):
                    component._ticks += 1
                    if (component._pending_wake is not None
                            and component._pending_wake <= cycle):
                        component._pending_wake = None  # satisfied
                    hint = self._tick_instrumented(component, sanitizer,
                                                   profiler)
                    if hint is not None:
                        self._request_sleep(component, hint)
            if profiler is not None:
                t0 = perf_counter()
            for element in self._eager_sequentials:
                element._commit()
            if self._dirty:
                self._commit_dirty()
            if profiler is not None:
                profiler.add("kernel.commit", perf_counter() - t0)
        else:
            self._slow_ticks += 1
            for component in list(self._components):
                self._tick_instrumented(component, sanitizer, profiler)
            if profiler is not None:
                t0 = perf_counter()
            if self._dirty:
                for element in self._dirty:
                    element._dirty_flag = False
                self._dirty.clear()
            for element in self._sequentials:
                element._commit()
            if profiler is not None:
                profiler.add("kernel.commit", perf_counter() - t0)
        if sanitizer is not None:
            sanitizer.end_cycle()

    def run(self, cycles: int) -> None:
        """Run for ``cycles`` clock cycles (or until :meth:`stop`).

        With the fast path enabled, fully quiescent stretches are
        skipped in one clock jump to the next scheduled event or timed
        wake — nothing can change during them, so no cycle is stepped.
        """
        self._stopped = False
        end = self.cycle + cycles
        fast = self.fast_path
        step = self.step
        while self.cycle < end and not self._stopped:
            # inline `self.quiescent` — a property call per cycle is
            # measurable at this loop's frequency
            if (fast and not self._runnable and not self._dirty
                    and not self._eager_sequentials):
                # inline `self.next_activity()`: one jump per quiescent
                # stretch makes the call overhead visible in idle-heavy
                # workloads
                events = self._events
                heap = self._wake_heap
                if events:
                    nxt = events[0][0]
                    if heap and heap[0][0] < nxt:
                        nxt = heap[0][0]
                elif heap:
                    nxt = heap[0][0]
                else:
                    nxt = None
                target = end if nxt is None else min(nxt, end)
                if target > self.cycle:
                    metrics = self._kmetrics
                    metrics.ff_jumps += 1
                    metrics.ff_cycles_skipped += target - self.cycle
                    self.cycle = target
                    continue
            step()
        self._flush_deferred()

    def run_for_time(self, seconds: float, clock_hz: float) -> int:
        """Run the number of cycles covering ``seconds`` of wall time at
        ``clock_hz`` (e.g. one video frame at the architecture's f_max);
        returns the cycles run."""
        if seconds < 0 or clock_hz <= 0:
            raise SimError("run_for_time needs seconds >= 0 and clock > 0")
        cycles = int(round(seconds * clock_hz))
        self.run(cycles)
        return cycles

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        max_cycles: Optional[int] = None,
    ) -> int:
        """Run until ``predicate(sim)`` holds; return the cycle it held at.

        Raises :class:`SimError` when the cycle bound is exceeded, so a
        deadlocked model fails loudly.  A :meth:`stop` request instead
        ends the loop cleanly after the stopping cycle and returns the
        current cycle — check :attr:`stopped` to distinguish it from the
        predicate holding.

        The predicate is evaluated at every cycle (it may depend on
        ``sim.cycle`` itself, as :meth:`drain` does), so the clock is
        never jumped here; quiescent cycles still cost O(1) each.
        """
        bound = self.max_cycles if max_cycles is None else self.cycle + max_cycles
        self._stopped = False
        try:
            while not predicate(self):
                if self._stopped:
                    return self.cycle
                if self.cycle >= bound:
                    raise SimError(
                        f"{self.name}: run_until exceeded {bound} cycles "
                        f"(now {self.cycle})"
                    )
                self.step()
            return self.cycle
        finally:
            self._flush_deferred()

    def drain(self, idle_predicate: Callable[["Simulator"], bool], patience: int = 64,
              max_cycles: Optional[int] = None) -> int:
        """Run until ``idle_predicate`` holds for ``patience`` consecutive cycles.

        Useful to flush in-flight packets after a workload stops injecting.
        """
        streak = 0

        def _pred(sim: "Simulator") -> bool:
            nonlocal streak
            streak = streak + 1 if idle_predicate(sim) else 0
            return streak >= patience

        return self.run_until(_pred, max_cycles=max_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator({self.name!r}, cycle={self.cycle}, "
            f"components={len(self._components)})"
        )


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name; None means the ambient default
    (:data:`ENGINE_ENV`, else ``object``), validated the same way."""
    source = ""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV, "object")
        source = f" (from {ENGINE_ENV})"
    name = engine.strip().lower()
    if name not in ENGINES:
        raise SimError(
            f"unknown engine {engine!r}{source}: expected one of "
            f"{', '.join(ENGINES)}"
        )
    return name


def make_simulator(name: str = "sim", engine: Optional[str] = None,
                   **kwargs) -> Simulator:
    """Build a :class:`Simulator` after validating ``engine`` through
    :func:`resolve_engine`.  Every engine name builds the same
    simulator; the other keyword arguments pass to its constructor."""
    resolve_engine(engine)
    return Simulator(name=name, **kwargs)
