"""ObservationSession: construction-hook attach/restore semantics."""

import os

import pytest

from repro.obs import ObservationSession, observe_named
from repro.sim import ENGINE_ENV, SimError, Simulator, make_simulator
from repro.sim.engine import set_new_sim_hook


class TestHookLifecycle:
    def test_attaches_tracer_to_sims_built_inside(self):
        with ObservationSession() as obs:
            sim = Simulator()
        assert sim.tracer is not None
        assert obs.sims == [sim]
        assert obs.traced_sims == [sim]

    def test_restores_hook_on_exit(self):
        with ObservationSession():
            pass
        sim = Simulator()
        assert sim.tracer is None

    def test_restores_hook_on_exception(self):
        with pytest.raises(RuntimeError):
            with ObservationSession():
                raise RuntimeError("boom")
        assert Simulator().tracer is None

    def test_not_reentrant(self):
        obs = ObservationSession()
        with obs:
            with pytest.raises(RuntimeError):
                obs.__enter__()

    def test_nested_sessions_chain(self):
        with ObservationSession() as outer:
            with ObservationSession() as inner:
                sim = Simulator()
        assert sim in inner.sims and sim in outer.sims
        assert Simulator().tracer is None

    def test_preexisting_tracer_respected(self):
        from repro.sim import Tracer

        mine = Tracer()
        prev = set_new_sim_hook(lambda s: setattr(s, "tracer", mine))
        try:
            with ObservationSession() as obs:
                sim = Simulator()
        finally:
            set_new_sim_hook(prev)
        # the session chains to the previous hook rather than replacing it
        assert sim in obs.sims

    def test_profile_session(self):
        with ObservationSession(trace=False, profile=True) as obs:
            sim = Simulator()
            sim.step()
        assert sim.tracer is None
        assert sim.profiler is not None
        assert obs.traced_sims == []

    def test_tracer_capacity_forwarded(self):
        with ObservationSession(max_events=7, keep="head"):
            sim = Simulator()
        assert sim.tracer.max_events == 7
        assert sim.tracer.keep == "head"

    def test_event_and_span_totals(self):
        with ObservationSession() as obs:
            sim = Simulator()
            sim.emit("s", "k")
            sim.span_event("s", "k", 0, 1)
        assert obs.total_events() == 1
        assert obs.total_spans() == 1


class TestEngineValidation:
    """The session validates engine names exactly like make_simulator:
    case-insensitively, with SimError for unknown names."""

    def test_accepts_what_make_simulator_accepts(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        make_simulator(engine="VEC")
        with ObservationSession(trace=False, engine="VEC") as obs:
            assert os.environ[ENGINE_ENV] == "vec"
        assert obs.engine == "vec"
        assert ENGINE_ENV not in os.environ

    def test_rejects_what_make_simulator_rejects(self):
        with pytest.raises(SimError, match="vce"):
            make_simulator(engine="vce")
        with pytest.raises(SimError, match="vce"):
            ObservationSession(engine="vce")


class TestObserveNamed:
    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            observe_named("nope")

    def test_runs_experiment_and_collects_sims(self):
        result, session = observe_named("e1")
        assert result is not None
        assert session.traced_sims
        assert session.total_events() > 0
        # hook restored afterwards
        assert Simulator().tracer is None
