"""Self-test of the benchmark at a tiny horizon.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import workloads as wl  # noqa: E402
from meter import Meter, stopwatch  # noqa: E402
from reference import clock  # noqa: E402
from repro.sim import SimError  # noqa: E402

SEED = 3


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(wl, "DENSE_CYCLES", 1_000)
    monkeypatch.setattr(wl, "DENSE_GAP", 1_000)
    monkeypatch.setattr(wl, "DENSE_COPIES", 1)
    monkeypatch.setattr(wl, "CHURN_SWAPS", 1)
    monkeypatch.setattr(wl, "FLEET_SEEDS", 2)
    monkeypatch.setattr(wl, "FLEET_WORKLOAD", {
        "cycles": 600, "bursts": 1, "burst_size": 3, "burst_gap": 100})
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SCRATCH", tmp_path)


def declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(workload, trace, capsys):
    result = run.run_workload(workload, SEED, 0.01, trace, None)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] > 0
    want = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_gauge_samples_are_left_out_of_the_unit_time():
    out = wl.UnitOutcome("spin", 1)
    with stopwatch(out):
        t0 = clock()
        while clock() - t0 < 0.3:  # the samples run inside this
            pass
    assert out.gauge > 0
    assert 0.2 < out.cpu < 0.3
    assert signal.getsignal(signal.SIGPROF) is signal.SIG_DFL


def test_tampered_digest_fails_the_run(monkeypatch, tmp_path):
    workload = wl.WORKLOADS["dense-burst"]
    table = json.loads(run.DIGESTS.read_text())
    outcomes, _, _ = run.run_round(
        workload, workload.plan(table["default_seed"]), Meter())
    digests = {o.unit: o.digest for o in outcomes}
    path = tmp_path / "digests.json"
    monkeypatch.setattr(run, "DIGESTS", path)
    argv = ["--workload", "dense-burst", "--seconds", "0.01"]

    table["digests"] = {"dense-burst": digests}
    path.write_text(json.dumps(table))
    assert run.main(argv) == 0

    table["digests"]["dense-burst"]["buscom"] = "0" * 16
    path.write_text(json.dumps(table))
    assert run.main(argv) == 1


def test_unit_raising_simerror_counts_its_operations_failed(monkeypatch):
    workload = wl.WORKLOADS["dense-burst"]
    real = workload.run_unit

    def flaky(key, plan, meter):
        if key == "buscom":
            raise SimError("injected")
        return real(key, plan, meter)

    monkeypatch.setattr(workload, "run_unit", flaky)
    result = run.run_workload("dense-burst", SEED, 0.01, False, None)
    ops = len(workload.plan(SEED))
    rounds = result["attempted"] // (ops * len(workload.units))
    assert rounds >= run.MIN_ROUNDS
    assert result["attempted"] == rounds * ops * len(workload.units)
    assert result["failed"] == rounds * ops
    assert not result["correct"]
    assert result["metrics"]["round_cost"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_run_whose_every_unit_raises_still_reports(workload, trace,
                                                   monkeypatch):
    def broken(key, plan, meter, **options):
        raise SimError("injected")

    monkeypatch.setattr(wl.WORKLOADS[workload], "run_unit", broken)
    result = run.run_workload(workload, SEED, 0.01, trace, None)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
