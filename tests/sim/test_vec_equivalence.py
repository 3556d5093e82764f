"""Golden equivalence: vec engine vs object engine, bit for bit.

The SoA backend is a pure optimization — for every architecture,
workload, telemetry setting and fault script, a ``VecSimulator`` run
must produce exactly the same statistics, telemetry and traces as the
plain object kernel.  Components without a batch kernel (BUS-COM,
RMBoC, CoNoChi) and every component of an observed run must fall back
transparently inside the same hybrid cycle loop, and a numpy-less
install must degrade to the object path rather than fail.
"""

import json
import random

import pytest

from repro.arch import build_architecture
from repro.fabric.geometry import Rect
from repro.obs.flows import FlowTelemetry
from repro.sim import SimError, Tracer
from repro.sim.vec import make_simulator

#: architectures with a compiled-tick batch kernel installed
VEC_ARCHS = ("dynoc", "staticmesh", "sharedbus")
#: hybrid-fallback architectures: object tick inside VecSimulator
FALLBACK_ARCHS = ("conochi", "buscom", "rmboc")
ALL_ARCHS = VEC_ARCHS + FALLBACK_ARCHS


def _fingerprint(sim):
    parts = [json.dumps(sim.stats.snapshot(), sort_keys=True, default=str)]
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


def _drive(key, engine, telemetry=False, faults=False, tracing=False,
           seed=7, sends=150, cycles=2_500):
    sim = make_simulator(name=f"{key}-{engine}", engine=engine)
    if tracing:
        sim.tracer = Tracer(max_events=1_000_000)
    if telemetry:
        FlowTelemetry().attach(sim)
    arch = build_architecture(key, sim=sim, seed=seed)
    if engine == "vec" and key in VEC_ARCHS and not telemetry:
        assert sim.vec_kernels, f"{key}: no batch kernel installed"
    elif engine == "vec":
        # hybrid fallback (no kernel, or an observed run): object tick
        assert not sim.vec_kernels
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
    return _fingerprint(sim)


@pytest.mark.parametrize("telemetry", (False, True),
                         ids=("plain", "telemetry"))
@pytest.mark.parametrize("key", ALL_ARCHS)
def test_engines_bit_identical(key, telemetry):
    obj = _drive(key, "object", telemetry=telemetry)
    vec = _drive(key, "vec", telemetry=telemetry)
    assert obj == vec
    if telemetry:
        # an observed vec run takes the object tick, a bare one the
        # kernel: the simulated statistics must not notice
        bare = _drive(key, "vec")
        assert vec.split("|")[0] == bare.split("|")[0]


@pytest.mark.parametrize("key", sorted(_FAULT_SCRIPTS))
def test_engines_bit_identical_under_faults(key):
    obj = _drive(key, "object", faults=True)
    vec = _drive(key, "vec", faults=True)
    assert obj == vec


@pytest.mark.parametrize("key", ("rmboc", "dynoc"))
def test_engines_bit_identical_with_tracing(key):
    # no telemetry, so dynoc's kernel runs under tracing and faults
    obj = _drive(key, "object", faults=True, tracing=True)
    vec = _drive(key, "vec", faults=True, tracing=True)
    assert obj == vec


def test_dynoc_reconfiguration_mid_run_equivalent():
    """Detach a module, then place a multi-PE module during traffic:
    placement reads the kernel's swapped arrival queue and must wait
    while headers are still routed through its region, and the routers
    it deactivates send later packets on S-XY detours.  None of this
    may perturb equivalence."""

    def drive(engine):
        sim = make_simulator(name=f"dynoc-{engine}", engine=engine)
        arch = build_architecture("dynoc", sim=sim, seed=3,
                                  num_modules=4, mesh=(5, 5))
        arch.attach("m4", rect=Rect(4, 4, 1, 1))
        arch.attach("m5", rect=Rect(0, 4, 1, 1))
        if engine == "vec":
            assert sim.vec_kernels
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
        return _fingerprint(sim)

    assert drive("object") == drive("vec")


def test_late_telemetry_attach_raises():
    """Kernels cannot record per-cycle telemetry, so attaching it after
    they are installed fails loudly instead of recording a partial
    stream; a vec simulator without kernels still accepts it."""
    sim = make_simulator(name="late", engine="vec")
    build_architecture("dynoc", sim=sim, seed=7)
    assert sim.vec_kernels
    with pytest.raises(SimError, match="attach telemetry before"):
        FlowTelemetry().attach(sim)
    assert not sim.telemetering
    sim = make_simulator(name="late-fallback", engine="vec")
    build_architecture("conochi", sim=sim, seed=7)
    FlowTelemetry().attach(sim)
    assert sim.telemetering


def test_vec_simulator_without_numpy_degrades(monkeypatch):
    """The documented pure-Python fallback: no numpy means
    ``vectorized`` stays False and no kernels install, but the run
    still completes on the object path."""
    import repro.sim.vec as vec

    monkeypatch.setattr(vec, "HAVE_NUMPY", False)
    sim = make_simulator(name="fallback", engine="vec")
    assert not sim.vectorized
    arch = build_architecture("dynoc", sim=sim, seed=7)
    assert not sim.vec_kernels
    sim.at(5, lambda _s, a=arch: a.ports["m0"].send("m1", 64))
    sim.run(500)
    assert arch.log.delivered()


def test_env_var_selects_vec_engine(monkeypatch):
    from repro.sim.vec import ENGINE_ENV, VecSimulator

    monkeypatch.setenv(ENGINE_ENV, "vec")
    arch = build_architecture("sharedbus")
    assert isinstance(arch.sim, VecSimulator)
    assert arch.sim.vec_kernels
    monkeypatch.setenv(ENGINE_ENV, "object")
    arch = build_architecture("sharedbus")
    assert not isinstance(arch.sim, VecSimulator)


def test_bad_env_engine_raises(monkeypatch):
    """An unknown REPRO_SIM_ENGINE value fails like an explicit bad
    name instead of silently selecting the object kernel."""
    from repro.sim.vec import ENGINE_ENV

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
