"""The benchmark's three workloads.

Each workload turns the seed into a fixed input plan, runs one *unit*
(one architecture, or one fleet of seeds on one architecture) at a
time, and checks what the unit simulated.  Traffic follows the plan in
simulated time, whatever the host does, so every workload is open-loop.

The units call the program only through its public entry points; the
CPU-time accounting lives in :mod:`meter`.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.analysis.batch as batch
import repro.obs.ledger as ledger
from repro.arch import build_architecture
from repro.fabric.device import get_device
from repro.fabric.geometry import Rect
from repro.obs.profile import Profiler
from repro.reconfig.manager import ReconfigurationManager
from repro.reconfig.module import ModuleSpec
from repro.sim import Simulator
from repro.traffic.generators import PeriodicStream

from meter import Meter, stopwatch
from reference import clock

#: every architecture the repository models, paper four first
ARCHS = ("rmboc", "buscom", "dynoc", "conochi", "sharedbus", "staticmesh")
#: the four that support runtime module exchange
RECONFIGURABLE = ARCHS[:4]
NUM_MODULES = 4

# dense-burst: the busy-path benchmark's cadence — a burst of messages
# with large payloads every DENSE_GAP cycles over DENSE_CYCLES — but
# every burst holds each (ordered module pair, payload) combination
# DENSE_COPIES times, in seeded order at seeded offsets.  Independent
# draws of pair and payload would move the work by up to a third from
# seed to seed; this way the seed moves timing, not the amount of work.
DENSE_CYCLES = 10_000
DENSE_GAP = 5_000
DENSE_COPIES = 4
DENSE_JITTER = 50
DENSE_PAYLOADS = (256, 1024, 4096)
#: cycles the drain after the injection horizon may take before the
#: unit counts as failed (the kernel raises SimError past it)
DRAIN_BOUND = 2_000_000

# reconfig-churn: slot 0 swapped on a fixed cadence under a bystander
# stream.  A one-column region rewrites in ~53 k cycles, so the period
# leaves each swap time to finish before the next is requested.
CHURN_PERIOD = 60_000
CHURN_SWAPS = 3
CHURN_SWAP_JITTER = 4_000
CHURN_REGION_COLUMNS = 1
STREAM_PERIOD = 50
STREAM_BYTES = 32
CHURN_DEVICE = "XC2V6000"

# ledgered-fleet: each seed runs run_seed_fleet's own default input
# (the `repro sweep` one) and gets a full ledger record.  A fleet has
# fewer seeds than the per-seed ledger limit so that a round of six
# fleets fits a run; the per-seed costs are those of the default input.
FLEET_SEEDS = 8
assert FLEET_SEEDS <= batch.PER_SEED_LEDGER_MAX
#: keyword overrides of run_seed_fleet's input (none: its defaults)
FLEET_WORKLOAD: Dict[str, int] = {}


def digest(data: Any) -> str:
    """Short content hash of JSON-able simulated results."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class UnitOutcome:
    """What one unit did: operations, CPU time, simulated results."""

    unit: str
    ops: int
    cpu: float = 0.0
    wall: float = 0.0
    #: mean CPU seconds of the gauge's samples during the unit
    #: (untraced runs only)
    gauge: float = 0.0
    cycles: int = 0
    digest: Optional[str] = None
    errors: List[str] = field(default_factory=list)
    #: simulators kept for per-layer reads (traced runs only)
    sims: List[Simulator] = field(default_factory=list)
    #: names of the benchmark's own traffic components in ``sims``
    traffic: Tuple[str, ...] = ()
    swaps_done: int = 0
    downtime_cycles: int = 0
    #: per-seed ``SeedResult.key()`` list (fleets only)
    keys: Optional[List[Any]] = None

    @property
    def failed(self) -> int:
        """A unit that failed any check fails all of its operations."""
        return self.ops if self.errors else 0


# ----------------------------------------------------------------------
# dense-burst
# ----------------------------------------------------------------------
def dense_plan(seed: int) -> List[Tuple[int, str, str, int]]:
    """(cycle, src, dst, payload) sends, the same for every architecture."""
    rng = random.Random(seed)
    mods = [f"m{i}" for i in range(NUM_MODULES)]
    burst = [(src, dst, payload) for src in mods for dst in mods
             if src != dst for payload in DENSE_PAYLOADS] * DENSE_COPIES
    sends = []
    for b in range(DENSE_CYCLES // DENSE_GAP):
        rng.shuffle(burst)
        for src, dst, payload in burst:
            at = 1 + b * DENSE_GAP + rng.randrange(DENSE_JITTER)
            sends.append((at, src, dst, payload))
    return sends


def _build_dense(key: str, sends, meter: Meter):
    sim = Simulator(name=f"dense-{key}", profile=meter.tracing)
    with meter.span("build"):
        arch = build_architecture(key, num_modules=NUM_MODULES, sim=sim)
    with meter.span("schedule"):
        ports = arch.ports
        for at, src, dst, payload in sends:
            send = ports[src].send
            if meter.tracing:
                send = meter.counted("traffic", send)
            sim.at(at, lambda _s, f=send, d=dst, p=payload: f(d, p))
    return sim, arch


def run_dense(key: str, sends, meter: Meter) -> UnitOutcome:
    out = UnitOutcome(key, len(sends))
    with stopwatch(out, gauged=not meter.tracing):
        sim, arch = _build_dense(key, sends, meter)
        # inject over the bursts, then drain
        meter.call("kernel.run", sim.run, DENSE_CYCLES)
        meter.call("kernel.run_until", arch.run_to_completion,
                   max_cycles=DRAIN_BOUND)
    out.cycles = sim.cycle
    log = arch.log
    lost = sum(1 for m in log.messages if m.dropped or not m.delivered)
    if log.total != len(sends):
        out.errors.append(f"{log.total} messages logged, {len(sends)} sent")
    if lost:
        out.errors.append(f"{lost} of {log.total} messages undelivered "
                          f"or dropped")
    if not arch.idle():
        out.errors.append("architecture not idle after the drain")
    out.digest = digest(sim.stats.snapshot())
    if meter.tracing:
        out.sims = [sim]
    return out


def dense_first_cycle(key: str, sends) -> None:
    sim, _ = _build_dense(key, sends, Meter())
    sim.run(1)


# ----------------------------------------------------------------------
# reconfig-churn
# ----------------------------------------------------------------------
@dataclass
class ChurnPlan:
    swap_cycles: List[int]
    stream_start: int

    @property
    def horizon(self) -> int:
        return len(self.swap_cycles) * CHURN_PERIOD

    @property
    def stream_messages(self) -> int:
        return len(range(self.stream_start, self.horizon, STREAM_PERIOD))

    @property
    def ops(self) -> int:
        return len(self.swap_cycles) + self.stream_messages


def churn_plan(seed: int) -> ChurnPlan:
    rng = random.Random(seed)
    return ChurnPlan(
        swap_cycles=[n * CHURN_PERIOD + rng.randrange(CHURN_SWAP_JITTER)
                     for n in range(CHURN_SWAPS)],
        stream_start=rng.randrange(STREAM_PERIOD),
    )


def _build_churn(key: str, plan: ChurnPlan, meter: Meter):
    sim = Simulator(name=f"churn-{key}", profile=meter.tracing)
    device = get_device(CHURN_DEVICE)
    region = Rect(0, 0, CHURN_REGION_COLUMNS, device.clb_rows)
    with meter.span("build"):
        arch = build_architecture(key, num_modules=NUM_MODULES, sim=sim)
        stream = PeriodicStream("bystander", arch.ports["m2"], "m3",
                                period=STREAM_PERIOD,
                                payload_bytes=STREAM_BYTES,
                                start=plan.stream_start, stop=plan.horizon)
        sim.add(stream)
        manager = ReconfigurationManager(arch, device)
    records = []
    with meter.span("schedule"):
        occupant = ["m0"]

        def swap(_sim, gen: int) -> None:
            spec = ModuleSpec(f"gen{gen}")
            records.append(manager.swap(occupant[0], spec, region))
            occupant[0] = spec.name

        for gen, at in enumerate(plan.swap_cycles):
            sim.at(at, lambda s, g=gen: swap(s, g))
    return sim, arch, stream, records


def run_churn(key: str, plan: ChurnPlan, meter: Meter) -> UnitOutcome:
    out = UnitOutcome(key, plan.ops, traffic=("bystander",))
    nswaps, expected = len(plan.swap_cycles), plan.stream_messages
    with stopwatch(out, gauged=not meter.tracing):
        sim, arch, stream, records = _build_churn(key, plan, meter)

        # both predicates read model state only, never the clock
        def swaps_done(_sim) -> bool:
            return len(records) == nswaps and all(r.done for r in records)

        def stream_done(_sim) -> bool:
            return (len(stream.sent) == expected and stream.all_delivered()
                    and arch.idle())

        if meter.tracing:
            swaps_done = meter.counted("predicate", swaps_done)
            stream_done = meter.counted("predicate", stream_done)
        bound = 10 * plan.horizon
        with meter.span("run_until", "kernel.run_until"):
            sim.run_until(swaps_done, max_cycles=bound)
        with meter.span("drain", "kernel.run_until"):
            sim.run_until(stream_done, max_cycles=bound)
    out.cycles = sim.cycle
    done = [r for r in records if r.done]
    out.swaps_done = len(done)
    out.downtime_cycles = sum(r.downtime_cycles for r in done)
    if len(done) != nswaps:
        out.errors.append(f"{len(done)} of {nswaps} swaps done")
    log = arch.log
    lost = sum(1 for m in log.messages if m.dropped or not m.delivered)
    if log.total != expected:
        out.errors.append(f"{log.total} messages sent, {expected} planned")
    if lost:
        out.errors.append(f"{lost} of {log.total} messages undelivered "
                          f"or dropped")
    if not arch.idle():
        out.errors.append("architecture not idle after the drain")
    out.digest = digest(sim.stats.snapshot())
    if meter.tracing:
        out.sims = [sim]
    return out


def churn_first_cycle(key: str, plan: ChurnPlan) -> None:
    sim, _, _, _ = _build_churn(key, plan, Meter())
    sim.run(1)


# ----------------------------------------------------------------------
# ledgered-fleet
# ----------------------------------------------------------------------
def fleet_plan(seed: int) -> List[int]:
    """The fleet's seed range, drawn from the workload seed."""
    base = random.Random(seed).randrange(1_000_000)
    return list(range(base, base + FLEET_SEEDS))


def run_fleet(key: str, seeds: List[int], meter: Meter,
              engine: str = "vec", ledgered: bool = True) -> UnitOutcome:
    """One ``run_seed_fleet`` call; with the ledger on, every record it
    wrote must pass ``validate_run``."""
    out = UnitOutcome(key, len(seeds))
    with stopwatch(out, gauged=not meter.tracing), \
            meter.span("run_seed_fleet"):
        fleet = batch.run_seed_fleet(key, seeds, engine=engine,
                                     ledger=ledgered, **FLEET_WORKLOAD)
    out.cycles = len(seeds) * FLEET_WORKLOAD.get("cycles",
                                                  batch.DEFAULT_CYCLES)
    out.keys = [list(r.key()) for r in fleet.results]
    out.digest = digest(out.keys)
    if fleet.seeds != list(seeds):
        out.errors.append("fleet results do not cover the planned seeds")
    # run_seed stops at its horizon without draining, so messages still
    # in flight there are not lost; a seed that delivers nothing, or
    # more than it sent, is
    bad = [r.seed for r in fleet.results
           if not 0 < r.delivered <= r.sent]
    if bad:
        out.errors.append(f"seeds {bad} delivered none or more than sent")
    if ledgered:
        if len(fleet.seed_run_ids) != len(seeds) or fleet.run_id is None:
            out.errors.append("fleet did not ledger one record per seed")
        store = ledger.RunLedger()
        for rid in fleet.seed_run_ids + [fleet.run_id]:
            try:
                ledger.validate_run(store.load(rid))
            except (ValueError, TypeError) as exc:
                out.errors.append(f"record {rid}: {exc}")
    return out


def fleet_first_cycle(key: str, seeds: List[int]) -> None:
    arch = build_architecture(key, num_modules=NUM_MODULES, engine="vec")
    arch.sim.run(1)


def fleet_warm_up(key: str, seeds: List[int]) -> None:
    """One ledgered seed, so the ledger path's lazy imports and first-use
    costs land before timing starts."""
    batch.run_seed_fleet(key, seeds[:1], engine="vec", ledger=True,
                         **FLEET_WORKLOAD)


# ----------------------------------------------------------------------
# per-layer accounting read from simulators after their unit ran
# ----------------------------------------------------------------------
KERNEL_COUNTS = ("cycles_stepped", "ff_cycles_skipped", "ticks_total",
                 "wakes_total", "commit_elements")


class SimTotals:
    """Kernel counters, profiler buckets and RMBoC protocol counters,
    summed over the simulators of a workload."""

    def __init__(self) -> None:
        self.kernel: Dict[str, int] = defaultdict(int)
        self.kernel_s: Dict[str, float] = defaultdict(float)
        self.profiled_s = 0.0
        self.arch_tick_s: Dict[str, float] = defaultdict(float)
        self.arch_ticks: Dict[str, int] = defaultdict(int)
        self.traffic_s = 0.0
        self.traffic_calls = 0
        self.rmboc = {"requested": 0, "cancelled": 0, "delivered": 0}

    def add(self, sim: Simulator, arch_key: str,
            traffic: Tuple[str, ...] = ()) -> None:
        km = sim.kmetrics
        for name in KERNEL_COUNTS:
            self.kernel[name] += getattr(km, name)
        prof = sim.profiler
        if prof is not None:
            for bucket, secs in prof.seconds.items():
                self.profiled_s += secs
                if bucket.startswith("kernel."):
                    self.kernel_s[bucket] += secs
                elif bucket in traffic:
                    self.traffic_s += secs
                    self.traffic_calls += prof.calls[bucket]
                else:
                    self.arch_tick_s[arch_key] += secs
                    self.arch_ticks[arch_key] += prof.calls[bucket]
        if arch_key == "rmboc":
            counters = sim.stats.snapshot()["counters"]
            self.rmboc["requested"] += counters.get(
                "rmboc.channels.requested", 0)
            self.rmboc["cancelled"] += counters.get(
                "rmboc.channels.cancelled", 0)
            self.rmboc["delivered"] += counters.get("delivered.messages", 0)


@dataclass
class FleetProbe:
    """What the instrumented fleet callees saw."""

    totals: SimTotals = field(default_factory=SimTotals)
    seed_s: List[float] = field(default_factory=list)


@contextmanager
def instrumented_fleet(meter: Meter,
                       profile: bool = False) -> Iterator[FleetProbe]:
    """Wrap the fleet runner's public callees — ``run_seed``,
    ``build_architecture``, ``ledgered_call``, ``build_run_record`` and
    ``RunLedger.store`` — so each call is timed and spanned; restore
    them on exit.  Record builds and stores made inside
    ``ledgered_call`` are bucketed apart from the fleet-level ones.
    With ``profile``, each seed's simulator gets a profiler and is read
    into :attr:`FleetProbe.totals` once its run ends."""
    probe = FleetProbe()
    sims: List[Tuple[Simulator, str]] = []
    depth = [0]
    orig_seed, orig_build = batch.run_seed, batch.build_architecture
    orig_call = ledger.ledgered_call
    orig_record, orig_store = ledger.build_run_record, ledger.RunLedger.store

    def scope(name: str) -> str:
        return name if depth[0] else f"{name}.fleet"

    def build(*args, **kwargs):
        arch = meter.call("build", orig_build, *args, **kwargs)
        sim = arch.sim
        run = sim.run
        sim.run = lambda cycles: meter.call("kernel.run", run, cycles)
        if profile:
            sim.profiler = Profiler()
            sims.append((sim, args[0]))
        return arch

    def run_seed(*args, **kwargs):
        t0 = clock()
        result = meter.call("run_seed", orig_seed, *args, **kwargs)
        probe.seed_s.append(clock() - t0)
        for sim, key in sims:
            probe.totals.add(sim, key)
        sims.clear()
        return result

    def ledgered_call(*args, **kwargs):
        depth[0] += 1
        try:
            return meter.call("ledgered_call", orig_call, *args, **kwargs)
        finally:
            depth[0] -= 1

    def build_run_record(*args, **kwargs):
        return meter.call(scope("build_run_record"), orig_record,
                          *args, **kwargs)

    def store(self, record):
        return meter.call(scope("store"), orig_store, self, record)

    batch.run_seed, batch.build_architecture = run_seed, build
    ledger.ledgered_call = ledgered_call
    ledger.build_run_record = build_run_record
    ledger.RunLedger.store = store
    try:
        yield probe
    finally:
        batch.run_seed, batch.build_architecture = orig_seed, orig_build
        ledger.ledgered_call = orig_call
        ledger.build_run_record = orig_record
        ledger.RunLedger.store = orig_store


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass
class Workload:
    name: str
    units: Tuple[str, ...]
    plan: Callable[[int], Any]
    ops: Callable[[Any], int]
    run_unit: Callable[[str, Any, Meter], UnitOutcome]
    #: build a unit and simulate its first cycle
    first_cycle: Callable[[str, Any], None]
    #: exercise a unit untimed, once, before the first round
    warm_up: Callable[[str, Any], None]
    #: runs with the ledger on (in a fresh store per round)
    ledgered: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dense-burst", ARCHS, dense_plan, len, run_dense,
             dense_first_cycle, dense_first_cycle),
    Workload("reconfig-churn", RECONFIGURABLE, churn_plan,
             lambda plan: plan.ops, run_churn, churn_first_cycle,
             churn_first_cycle),
    Workload("ledgered-fleet", ARCHS, fleet_plan, len, run_fleet,
             fleet_first_cycle, fleet_warm_up, ledgered=True),
)}
