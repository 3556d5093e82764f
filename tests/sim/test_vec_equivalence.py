"""Golden equivalence across engine names, scheduler paths and ticks.

Both engine names build the same simulator, so ``object`` and ``vec``
runs must agree bit for bit.  The interesting equivalence is inside
the DyNoC/StaticMesh and shared-bus ticks: on a bare run they sleep
through busy stretches and back-fill the skipped per-cycle samples,
while with the fast path off (every component ticks every cycle) or
with telemetry attached (the per-cycle tick) they record each sample
as it happens.  For every architecture, fault script, tracing setting
and mid-run reconfiguration, statistics and traces must not notice.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import build_architecture
from repro.fabric.geometry import Rect
from repro.obs.flows import FlowTelemetry
from repro.sim import ENGINE_ENV, SimError, Simulator, Tracer, make_simulator

#: architectures whose tick batches busy stretches
BATCHING_ARCHS = ("dynoc", "staticmesh", "sharedbus")
#: architectures that always tick per cycle while busy
PER_CYCLE_ARCHS = ("conochi", "buscom", "rmboc")
ALL_ARCHS = BATCHING_ARCHS + PER_CYCLE_ARCHS


def _fingerprint(sim, stats_only=False):
    parts = [json.dumps(sim.stats.snapshot(), sort_keys=True, default=str)]
    if stats_only:
        return parts[0]
    if sim.telemetering:
        parts.append(json.dumps(sim.telemetry.snapshot(sim.cycle),
                                sort_keys=True, default=str))
    if sim.tracing:
        parts.append(json.dumps([repr(e) for e in sim.tracer.events],
                                default=str))
    return "|".join(parts)


def _mask_one_router(arch):
    """Fail the first maskable router (deterministic pick)."""
    accesses = {pl.access for pl in arch._placements.values()}
    for coord in arch._router_active:
        if arch.is_active(coord) and coord not in accesses:
            arch.fail_router(coord)
            return


_FAULT_SCRIPTS = {
    "dynoc": lambda sim, arch: (
        sim.at(400, lambda _s: _mask_one_router(arch)),
        sim.at(1400, lambda _s: [arch.repair_router(c)
                                 for c in list(arch._failed_routers)]),
    ),
    "staticmesh": lambda sim, arch: (
        sim.at(400, lambda _s: _mask_one_router(arch)),
        sim.at(1400, lambda _s: [arch.repair_router(c)
                                 for c in list(arch._failed_routers)]),
    ),
    "sharedbus": lambda sim, arch: (
        sim.at(400, lambda _s: arch.halt_bus()),
        sim.at(700, lambda _s: arch.resume_bus()),
    ),
    "buscom": lambda sim, arch: (
        sim.at(400, lambda _s: arch.fail_bus(0)),
        sim.at(900, lambda _s: arch.repair_bus(0)),
    ),
    "rmboc": lambda sim, arch: (
        sim.at(400, lambda _s: arch.fail_crosspoint(1)),
        sim.at(900, lambda _s: arch.repair_crosspoint(1)),
        sim.at(1200, lambda _s: arch.freeze_slot(2)),
        sim.at(1500, lambda _s: arch.unfreeze_slot(2)),
    ),
}


def _drive(key, engine="object", fast=True, telemetry=False, faults=False,
           tracing=False, seed=7, sends=150, cycles=2_500):
    sim = make_simulator(name=f"{key}-{engine}", engine=engine,
                         fast_path=fast)
    if tracing:
        sim.tracer = Tracer(max_events=1_000_000)
    if telemetry:
        FlowTelemetry().attach(sim)
    arch = build_architecture(key, sim=sim, seed=seed)
    mods = list(arch.modules)
    rng = random.Random(seed)
    t = 0
    for _ in range(sends):
        t += rng.randrange(1, 25)
        src, dst = rng.sample(mods, 2)
        payload = rng.choice([4, 16, 64, 256])
        sim.at(t, lambda _s, a=arch, s=src, d=dst, p=payload:
               a.ports[s].send(d, p))
    if faults:
        _FAULT_SCRIPTS[key](sim, arch)
    sim.run(cycles)
    return sim


@pytest.mark.parametrize("telemetry", (False, True),
                         ids=("plain", "telemetry"))
@pytest.mark.parametrize("key", ALL_ARCHS)
def test_engines_bit_identical(key, telemetry):
    obj = _fingerprint(_drive(key, "object", telemetry=telemetry))
    assert obj == _fingerprint(_drive(key, "vec", telemetry=telemetry))
    assert obj == _fingerprint(_drive(key, fast=False, telemetry=telemetry))
    if telemetry:
        # an observed run ticks per cycle, a bare one batches stretches:
        # the simulated statistics must not notice
        bare = _fingerprint(_drive(key), stats_only=True)
        assert obj.split("|")[0] == bare


@pytest.mark.parametrize("key", sorted(_FAULT_SCRIPTS))
def test_engines_bit_identical_under_faults(key):
    """halt_bus and fail_router land mid-stretch: the batched tick
    must back-fill from what it stashed at sleep time."""
    fast = _fingerprint(_drive(key, faults=True))
    assert fast == _fingerprint(_drive(key, fast=False, faults=True))
    observed = _drive(key, faults=True, telemetry=True)
    assert fast == _fingerprint(observed, stats_only=True)


@pytest.mark.parametrize("key", ("rmboc", "dynoc"))
def test_engines_bit_identical_with_tracing(key):
    fast = _fingerprint(_drive(key, faults=True, tracing=True))
    assert fast == _fingerprint(_drive(key, fast=False, faults=True,
                                       tracing=True))


def test_dynoc_reconfiguration_mid_run_equivalent():
    """Detach a module, then place a multi-PE module during traffic:
    placement reads the arrival queue and must wait while headers are
    still routed through its region, and the routers it deactivates
    send later packets on S-XY detours.  None of this may perturb
    fast == slow or batched == per-cycle."""

    def drive(fast, telemetry=False):
        sim = Simulator(name="dynoc-reconfig", fast_path=fast)
        if telemetry:
            FlowTelemetry().attach(sim)
        arch = build_architecture("dynoc", sim=sim, seed=3,
                                  num_modules=4, mesh=(5, 5))
        arch.attach("m4", rect=Rect(4, 4, 1, 1))
        arch.attach("m5", rect=Rect(0, 4, 1, 1))
        rng = random.Random(3)
        mods = list(arch.modules)

        def send(a, s, d, p):
            if s in a._placements and d in a._placements:
                a.ports[s].send(d, p)

        t = 0
        for _ in range(200):
            t += rng.randrange(1, 30)
            src, dst = rng.sample(mods, 2)
            sim.at(t, lambda _s, a=arch, s=src, d=dst: send(a, s, d, 128))

        tries = []

        def try_place(s, a=arch):
            tries.append(s.cycle)
            try:
                a.attach("m6", rect=Rect(1, 1, 2, 2))
            except SimError:  # headers still routed through the region
                s.at(s.cycle + 5, try_place)

        sim.at(1_500, lambda _s, a=arch: a.detach("m5"))
        sim.at(1_520, try_place)
        # traffic aimed at the replacement once it is placed
        for i in range(15):
            sim.at(2_150 + i * 40,
                   lambda _s, a=arch: send(a, "m0", "m6", 256))
        sim.run(4_000)
        assert len(tries) > 1 and "m6" in arch.modules
        return sim

    fast = _fingerprint(drive(True))
    assert fast == _fingerprint(drive(False))
    assert fast == _fingerprint(drive(True, telemetry=True), stats_only=True)


CHUNKED_CYCLES = 1_200


def _run_chunks(key, sends, fault_at, chunks, fast):
    """Run CHUNKED_CYCLES cycles in ``chunks``; returns what a caller
    reads at each chunk boundary: (cycle, snapshot, observed_dmax)."""
    sim = Simulator(name=key, fast_path=fast)
    arch = build_architecture(key, sim=sim, seed=5)
    for at, src, dst, payload in sends:
        if src != dst:
            sim.at(at, lambda _s, s=src, d=dst, p=payload:
                   arch.ports[f"m{s}"].send(f"m{d}", p))
    if fault_at is not None and key == "sharedbus":
        sim.at(fault_at, lambda _s: arch.halt_bus())
        sim.at(fault_at + 97, lambda _s: arch.resume_bus())
    elif fault_at is not None:
        sim.at(fault_at, lambda _s: _mask_one_router(arch))
        sim.at(fault_at + 131, lambda _s: [arch.repair_router(c) for c in
                                           sorted(arch._failed_routers)])
    reads = []
    for k in list(chunks) + [CHUNKED_CYCLES]:
        k = min(k, CHUNKED_CYCLES - sim.cycle)
        if k <= 0:
            break
        sim.run(k)
        reads.append((sim.cycle, sim.stats.snapshot(), arch.observed_dmax))
    return reads


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(BATCHING_ARCHS),
       sends=st.lists(st.tuples(st.integers(1, CHUNKED_CYCLES - 50),
                                st.integers(0, 3), st.integers(0, 3),
                                st.sampled_from((4, 64, 256, 1024))),
                      min_size=1, max_size=25),
       fault_at=st.none() | st.integers(5, 900),
       chunks=st.lists(st.integers(1, 400), max_size=12),
       fast=st.booleans())
def test_chunked_runs_match_one_run(key, sends, fault_at, chunks, fast):
    """Splitting a run into random run(k) chunks moves the points where
    deferred samples are flushed, and halt_bus/fail_router land
    mid-stretch.  Every read between runs must equal the slow path's,
    which ticks every cycle and so never defers a sample, and the end
    state must equal one uninterrupted run's."""
    chunked = _run_chunks(key, sends, fault_at, chunks, fast)
    assert chunked == _run_chunks(key, sends, fault_at, chunks, False)
    assert chunked[-1] == _run_chunks(key, sends, fault_at, [], fast)[-1]


@pytest.mark.parametrize("key", BATCHING_ARCHS)
def test_late_telemetry_attach_resumes_per_cycle_ticks(key):
    """Telemetry attached while the tick sleeps through a busy stretch
    wakes it: the telemetry it records from then on equals a slow-path
    run's (which never sleeps), and the statistics a bare run's."""

    def drive(fast, attach_at):
        sim = Simulator(name=f"{key}-late", fast_path=fast)
        arch = build_architecture(key, sim=sim, seed=7)
        for i in range(12):
            sim.at(1 + 3 * i, lambda _s, a=arch, i=i: a.ports[
                f"m{i % 4}"].send(f"m{(i + 1) % 4}", 1024))
        sim.run(attach_at)
        if attach_at:
            FlowTelemetry().attach(sim)
        sim.run(3_000 - attach_at)
        return sim

    late = drive(True, 120)
    assert late.telemetering
    assert _fingerprint(late) == _fingerprint(drive(False, 120))
    assert (_fingerprint(late, stats_only=True)
            == _fingerprint(drive(True, 0), stats_only=True))


def test_env_var_selects_vec_engine(monkeypatch):
    """REPRO_SIM_ENGINE is resolved and validated like an explicit
    name; both names build a plain Simulator named after the
    architecture key."""
    monkeypatch.setenv(ENGINE_ENV, "vec")
    arch = build_architecture("sharedbus")
    assert type(arch.sim) is Simulator and arch.sim.name == "sharedbus"
    monkeypatch.setenv(ENGINE_ENV, "object")
    arch = build_architecture("sharedbus")
    assert type(arch.sim) is Simulator and arch.sim.name == "sharedbus[4]"


def test_bad_env_engine_raises(monkeypatch):
    """An unknown REPRO_SIM_ENGINE value fails like an explicit bad
    name instead of silently selecting the object kernel."""
    monkeypatch.setenv(ENGINE_ENV, "vce")
    with pytest.raises(SimError, match="vce"):
        make_simulator(name="x")
    with pytest.raises(SimError, match=ENGINE_ENV):
        build_architecture("sharedbus")
    with pytest.raises(SimError, match="vce"):
        make_simulator(name="x", engine="vce")


def test_explicit_engine_conflicts_with_sim():
    sim = make_simulator(name="x", engine="object")
    with pytest.raises(ValueError):
        build_architecture("sharedbus", sim=sim, engine="vec")
