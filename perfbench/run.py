"""Simulator benchmark: dense-burst, reconfig-churn and ledgered-fleet.

Runs one workload in this process for about ``--seconds`` of wall time,
repeating the whole workload (a *round*) and reporting per-unit medians
of CPU time (see :mod:`meter`),
checks every simulated output, and prints as its last line one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  See ``perfbench/README.md``.

Usage::

    python3 perfbench/run.py --workload dense-burst --seed 1 \
        --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from reference import REFERENCE_SECONDS, Gauge, clock  # noqa: E402

#: a set-up probe gauges the host from before its first import of the
#: program on
PROBE_GAUGE = Gauge().start() if "--setup-probe" in sys.argv[1:] else None

import workloads as wl  # noqa: E402
from meter import Meter  # noqa: E402

#: scratch space inside the checkout: per-round ledger stores, traces
SCRATCH = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
#: child processes timed from spawn to their first simulated cycle
SETUP_PROBES = 7
#: untraced rounds a run makes whatever ``--seconds`` says
MIN_ROUNDS = 2
#: program settings cleared so the environment cannot change what runs
CLEARED_ENV = ("REPRO_SIM_ENGINE", "REPRO_SIM_FASTPATH", "REPRO_SIM_PROFILE",
               "REPRO_SIM_SANITIZE")
STORE_ENV = ("REPRO_LEDGER_DIR", "REPRO_CACHE_DIR")

END_TO_END = {
    "round_cost": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "kernel.cycles_stepped": "count",
    "kernel.ff_cycles_skipped": "count",
    "kernel.ticks_total": "count",
    "kernel.ticks_per_stepped_cycle": "ratio",
    "kernel.wakes_total": "count",
    "kernel.commit_elements": "count",
    "kernel.run_s": "s",
    "kernel.run_until_s": "s",
    "kernel.events_s": "s",
    "kernel.commit_s": "s",
    "kernel.predicate_calls": "count",
    "kernel.predicate_s": "s",
    "kernel.loop_s": "s",
    **{f"arch.{k}.{m}": u for k in wl.ARCHS
       for m, u in (("cpu_s", "s"), ("tick_s", "s"), ("ticks", "count"))},
    "arch.rmboc.requests_per_delivered": "ratio",
    "arch.rmboc.cancels_per_delivered": "ratio",
    "traffic.s": "s",
    "traffic.calls": "count",
    "reconfig.swaps_done": "count",
    "reconfig.downtime_cycles": "cycles",
    "reconfig.events_s": "s",
    **{f"vec.{k}.speedup": "ratio" for k in wl.ARCHS},
    "obs.object.overhead_ratio": "ratio",
    "obs.vec.overhead_ratio": "ratio",
    "obs.session_s": "s",
    "obs.record_build_s": "s",
    "obs.store_s": "s",
    "obs.records": "count",
    "obs.ledger_bytes": "bytes",
    "fleet.seed_p50_s": "s",
    "fleet.seed_p90_s": "s",
    "fleet.runner_s": "s",
    "trace.overhead_ratio": "ratio",
}

Round = Tuple[List[wl.UnitOutcome], Meter, Dict[str, int]]


# ----------------------------------------------------------------------
# environment and store isolation
# ----------------------------------------------------------------------
def _set_env(values: Dict[str, Optional[str]]) -> None:
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@contextmanager
def environment(**values: Optional[str]) -> Iterator[None]:
    """Set (str) or unset (None) environment variables; restore on exit."""
    saved = {k: os.environ.get(k) for k in values}
    _set_env(values)
    try:
        yield
    finally:
        _set_env(saved)


@contextmanager
def fresh_store(active: bool) -> Iterator[Dict[str, int]]:
    """Point the ledger and the result cache at a new empty directory,
    so every round pays the same cold-store cost; on exit, report what
    was written there and remove it."""
    written = {"records": 0, "bytes": 0}
    if not active:
        yield written
        return
    SCRATCH.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="store-", dir=SCRATCH)
    try:
        with environment(**{k: path for k in STORE_ENV}):
            yield written
            for base, _, files in os.walk(path):
                for name in files:
                    written["records"] += name.endswith(".json")
                    written["bytes"] += os.path.getsize(
                        os.path.join(base, name))
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# running units and rounds
# ----------------------------------------------------------------------
def guarded(unit: str, ops: int, fn, *args: Any,
            **kwargs: Any) -> wl.UnitOutcome:
    """Run one unit; an error inside it fails the unit's operations but
    not the benchmark run."""
    try:
        return fn(unit, *args, **kwargs)
    except Exception as exc:  # unit boundary: record, count, carry on
        traceback.print_exc(file=sys.stderr)
        return wl.UnitOutcome(unit, ops,
                              errors=[f"{type(exc).__name__}: {exc}"])


def run_round(workload: wl.Workload, plan: Any, meter: Meter,
              **options: Any) -> Round:
    """The workload's units, one after another; ``options`` go to each
    unit (the fleet's ``engine`` and ``ledgered``)."""
    outcomes = []
    ops = workload.ops(plan)
    with fresh_store(options.get("ledgered", workload.ledgered)) as written:
        for key in workload.units:
            gc.collect()
            with meter.span(f"unit:{key}"):
                outcomes.append(guarded(key, ops, workload.run_unit,
                                        plan, meter, **options))
    return outcomes, meter, written


def measure(workload: wl.Workload, plan: Any, seconds: float) -> List[Round]:
    """Untraced rounds, at least :data:`MIN_ROUNDS`, until the next one
    would overrun ``seconds``.  Every unit is exercised once first, so
    lazy imports and first-use costs stay out of the first round."""
    with fresh_store(workload.ledgered):
        for key in workload.units:
            workload.warm_up(key, plan)
    deadline = perf_counter() + seconds
    rounds = []
    while True:
        t0 = perf_counter()
        rounds.append(run_round(workload, plan, Meter()))
        now = perf_counter()
        if len(rounds) >= MIN_ROUNDS and now + (now - t0) > deadline:
            return rounds


def time_setup(workload: str, seed: int) -> Tuple[float, float]:
    """CPU seconds a fresh interpreter spends up to its first simulated
    cycle (imports, input generation and the first build), and the mean
    of the gauge's samples over that time.  The child reads its own
    clock and gauge and prints both."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=str(ROOT), timeout=120)
    words = proc.stdout.split()
    if proc.returncode != 0 or words[:1] != ["first-cycle"]:
        raise RuntimeError(f"setup probe exited {proc.returncode}")
    return float(words[1]), float(words[2])


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def check_digests(outcomes: List[wl.UnitOutcome],
                  reference: Dict[str, str],
                  recorded: Optional[Dict[str, str]]) -> None:
    """Every run of a unit must simulate what its first run did, and at
    the default seed what ``digests.json`` recorded."""
    for out in outcomes:
        if out.digest is None:
            continue
        if out.digest != reference.setdefault(out.unit, out.digest):
            out.errors.append(f"digest {out.digest} differs from this "
                              f"run's first ({reference[out.unit]})")
        if recorded is not None and out.digest != recorded.get(out.unit):
            out.errors.append(f"digest {out.digest} differs from the "
                              f"recorded {recorded.get(out.unit)}")


def check_keys(outcomes: List[wl.UnitOutcome],
               reference: Dict[str, wl.UnitOutcome], what: str) -> None:
    """Per-seed fleet results must not depend on engine or ledger."""
    for out in outcomes:
        ref = reference.get(out.unit)
        if ref is not None and out.keys is not None and out.keys != ref.keys:
            out.errors.append(f"per-seed results differ ({what})")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def unit_medians(rounds: List[Round], kind: str = "cpu"
                 ) -> Dict[str, float]:
    """Per unit, the median over the rounds of its ``cpu`` or ``wall``
    seconds."""
    times: Dict[str, List[float]] = {}
    for outcomes, _, _ in rounds:
        for out in outcomes:
            times.setdefault(out.unit, []).append(getattr(out, kind))
    return {unit: statistics.median(t) for unit, t in times.items()}


def round_cost(rounds: List[Round]) -> float:
    """The sum over units of each unit's median, over the rounds, of its
    CPU time over the mean gauge sample taken while it ran."""
    costs: Dict[str, List[float]] = {}
    for outcomes, _, _ in rounds:
        for out in outcomes:
            costs.setdefault(out.unit, []).append(_ratio(out.cpu,
                                                         out.gauge))
    return sum(statistics.median(c) for c in costs.values())


def bucket_median(rounds: List[Round], bucket: str) -> float:
    return statistics.median(m.seconds.get(bucket, 0.0)
                             for _, m, _ in rounds)


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was timed (every unit raised)."""
    return num / den if den else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: List[Round], setup: List[Tuple[float, float]]
               ) -> Dict[str, float]:
    """``setup_s`` is each probe's set-up time over its mean gauge
    sample, in seconds of a host that runs the gauge's snippet in
    REFERENCE_SECONDS."""
    return {
        "round_cost": round_cost(rounds),
        "setup_s": statistics.median(_ratio(cpu, gauge) * REFERENCE_SECONDS
                                     for cpu, gauge in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def unbounded(rounds: List[Round], setup: List[Tuple[float, float]]
              ) -> Dict[str, float]:
    """Raw times, printed for reading but not reported: they move with
    the host's speed (see ``reference.py``)."""
    wall = sum(unit_medians(rounds, "wall").values())
    cycles = sum(out.cycles for out in rounds[0][0])
    raw = {
        "wall_s": wall,
        "cpu_s": sum(unit_medians(rounds).values()),
        "sim_cycles_per_s": _ratio(cycles, wall),
    }
    if setup:
        raw["setup_cpu_s"] = statistics.median(cpu for cpu, _ in setup)
    return raw


def sim_layers(totals: wl.SimTotals, run_s: float, run_until_s: float,
               predicate_s: float, predicate_calls: int) -> Dict[str, float]:
    """Kernel, arch-tick and RMBoC rows from summed simulator reads."""
    k = totals.kernel
    rm = totals.rmboc
    out = {
        **{f"kernel.{name}": k[name] for name in wl.KERNEL_COUNTS},
        "kernel.ticks_per_stepped_cycle":
            _ratio(k["ticks_total"], k["cycles_stepped"]),
        "kernel.run_s": run_s,
        "kernel.run_until_s": run_until_s,
        "kernel.events_s": totals.kernel_s["kernel.events"],
        "kernel.commit_s": totals.kernel_s["kernel.commit"],
        "kernel.predicate_calls": predicate_calls,
        "kernel.predicate_s": predicate_s,
        "kernel.loop_s": run_s + run_until_s - totals.profiled_s
        - predicate_s,
        "arch.rmboc.requests_per_delivered":
            _ratio(rm["requested"], rm["delivered"]),
        "arch.rmboc.cancels_per_delivered":
            _ratio(rm["cancelled"], rm["delivered"]),
    }
    for key in wl.ARCHS:
        out[f"arch.{key}.tick_s"] = totals.arch_tick_s[key]
        out[f"arch.{key}.ticks"] = totals.arch_ticks[key]
    return out


def traced_sim_workload(workload: wl.Workload, plan: Any,
                        rounds: List[Round], meter: Meter,
                        reference: Dict[str, str],
                        recorded: Optional[Dict[str, str]]
                        ) -> Tuple[Dict[str, float], List[wl.UnitOutcome]]:
    """One profiled, spanned round of dense-burst or reconfig-churn."""
    outcomes, m, _ = run_round(workload, plan, meter.fork())
    check_digests(outcomes, reference, recorded)
    totals = wl.SimTotals()
    for out in outcomes:
        for sim in out.sims:
            totals.add(sim, out.unit, out.traffic)
    untraced = sum(unit_medians(rounds).values())
    metrics = sim_layers(totals, m.seconds["kernel.run"],
                         m.seconds["kernel.run_until"],
                         m.seconds["predicate"], m.calls["predicate"])
    metrics.update({
        "traffic.s": m.seconds["traffic"] + totals.traffic_s,
        "traffic.calls": m.calls["traffic"] + totals.traffic_calls,
        "reconfig.swaps_done": sum(o.swaps_done for o in outcomes),
        "reconfig.downtime_cycles": sum(o.downtime_cycles
                                        for o in outcomes),
        "reconfig.events_s": totals.kernel_s["kernel.events"]
        if workload.name == "reconfig-churn" else 0.0,
        "trace.overhead_ratio": _ratio(sum(o.cpu for o in outcomes),
                                       untraced),
    })
    # the vec engine and the ledger run only in ledgered-fleet
    metrics.update({name: 0.0 for name in PER_LAYER
                    if name.startswith(("vec.", "obs.", "fleet."))})
    return metrics, outcomes


def fleet_pass(workload: wl.Workload, seeds: List[int], meter: Meter,
               engine: str, ledgered: bool) -> List[wl.UnitOutcome]:
    with meter.span(f"pass:{engine}:{'ledger' if ledgered else 'plain'}"):
        outcomes, _, _ = run_round(workload, seeds, meter, engine=engine,
                                   ledgered=ledgered)
    return outcomes


def traced_fleet_workload(workload: wl.Workload, seeds: List[int],
                          rounds: List[Round], meter: Meter,
                          reference: Dict[str, str],
                          recorded: Optional[Dict[str, str]]
                          ) -> Tuple[Dict[str, float], List[wl.UnitOutcome]]:
    """The traced fleet: one instrumented vec+ledger round, then paired
    passes on the same seeds, each pair run back to back — vec with and
    without the ledger, object without and with it — and a profiled vec
    pass for the kernel rows."""
    am = meter.fork()
    with wl.instrumented_fleet(am) as probe_a:
        a, _, written = run_round(workload, seeds, am)
    check_digests(a, reference, recorded)
    vec_ledger = fleet_pass(workload, seeds, meter.fork(), "vec", True)
    vec_plain = fleet_pass(workload, seeds, meter.fork(), "vec", False)
    obj_plain = fleet_pass(workload, seeds, meter.fork(), "object", False)
    obj_ledger = fleet_pass(workload, seeds, meter.fork(), "object", True)
    em = meter.fork()
    with wl.instrumented_fleet(em, profile=True) as probe_e:
        vec_profiled = fleet_pass(workload, seeds, em, "vec", False)
    by_unit = {o.unit: o for o in a}
    check_keys(vec_ledger, by_unit, "instrumented vs plain")
    check_keys(vec_plain, by_unit, "vec engine, ledger on vs off")
    check_keys(obj_plain, {o.unit: o for o in vec_plain},
               "object vs vec engine")
    check_keys(obj_ledger, {o.unit: o for o in obj_plain},
               "object engine, ledger on vs off")
    check_keys(vec_profiled, by_unit, "profiled vs plain")

    def total(outs: List[wl.UnitOutcome]) -> float:
        return sum(o.cpu for o in outs)

    s = am.seconds
    record_build = s["build_run_record"] + s["build_run_record.fleet"]
    store = s["store"] + s["store.fleet"]
    session = (s["ledgered_call"] - s["run_seed"] - s["build_run_record"]
               - s["store"])
    untraced = sum(unit_medians(rounds).values())
    seed_s = probe_a.seed_s
    seed_p90 = (statistics.quantiles(seed_s, n=10)[8] if len(seed_s) > 1
                else _median(seed_s))
    metrics = sim_layers(probe_e.totals, em.seconds["kernel.run"], 0.0,
                         0.0, 0)
    vec_by = {o.unit: o.cpu for o in vec_plain}
    metrics.update({
        "traffic.s": 0.0,
        "traffic.calls": 0,
        "reconfig.swaps_done": 0,
        "reconfig.downtime_cycles": 0,
        "reconfig.events_s": 0.0,
        **{f"vec.{o.unit}.speedup": _ratio(o.cpu, vec_by[o.unit])
           for o in obj_plain},
        "obs.object.overhead_ratio": _ratio(total(obj_ledger),
                                            total(obj_plain)),
        "obs.vec.overhead_ratio": _ratio(total(vec_ledger),
                                         total(vec_plain)),
        "obs.session_s": session,
        "obs.record_build_s": record_build,
        "obs.store_s": store,
        "obs.records": written["records"],
        "obs.ledger_bytes": written["bytes"],
        "fleet.seed_p50_s": _median(seed_s),
        "fleet.seed_p90_s": seed_p90,
        "fleet.runner_s": total(a) - s["run_seed"] - session
        - record_build - store,
        "trace.overhead_ratio": _ratio(total(a), untraced),
    })
    return metrics, (a + vec_ledger + vec_plain + obj_plain + obj_ledger
                     + vec_profiled)


def traced_layers(workload: wl.Workload, plan: Any, seed: int,
                  rounds: List[Round], reference: Dict[str, str],
                  recorded: Optional[Dict[str, str]]
                  ) -> Tuple[Dict[str, float], List[wl.UnitOutcome]]:
    meter = Meter(tracing=True)
    with meter.span(f"workload:{workload.name}"):
        if workload.ledgered:
            metrics, outcomes = traced_fleet_workload(
                workload, plan, rounds, meter, reference, recorded)
        else:
            metrics, outcomes = traced_sim_workload(
                workload, plan, rounds, meter, reference, recorded)
    # timed in the untraced rounds too
    medians = unit_medians(rounds)
    for key in wl.ARCHS:
        metrics[f"arch.{key}.cpu_s"] = medians.get(key, 0.0)
    if not workload.ledgered:
        metrics["kernel.run_s"] = bucket_median(rounds, "kernel.run")
        metrics["kernel.run_until_s"] = bucket_median(rounds,
                                                      "kernel.run_until")
    path = SCRATCH / f"trace-{workload.name}-seed{seed}.json"
    meter.write_chrome_trace(str(path))
    print(f"trace: {meter.span_count} spans -> {path}")
    return {name: metrics[name] for name in PER_LAYER}, outcomes


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def load_digests() -> Dict[str, Any]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 recorded: Optional[Dict[str, str]]) -> Dict[str, Any]:
    """Measure one workload; returns the result object the benchmark
    prints.  ``recorded`` holds the expected unit digests (default seed
    only; None skips that check)."""
    workload = wl.WORKLOADS[name]
    env = {k: None for k in CLEARED_ENV}
    env["REPRO_LEDGER"] = "1" if workload.ledgered else "0"
    with environment(**env):
        plan = workload.plan(seed)
        rounds = measure(workload, plan, seconds / 2 if trace else seconds)
        reference: Dict[str, str] = {}
        outcomes = []
        for outs, _, _ in rounds:
            check_digests(outs, reference, recorded)
            outcomes += outs
        setup = []
        if trace:
            metrics, traced = traced_layers(workload, plan, seed, rounds,
                                            reference, recorded)
            outcomes += traced
            units = PER_LAYER
        else:
            setup = [time_setup(name, seed) for _ in range(SETUP_PROBES)]
            metrics = end_to_end(rounds, setup)
            units = END_TO_END
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for out in outcomes:
        for err in out.errors:
            print(f"FAILED {name}/{out.unit}: {err}")
    print(f"{name}: seed {seed}, {len(rounds)} untraced rounds, "
          f"failed_ratio {failed}/{attempted}")
    print("  unit median cpu: " + ", ".join(
        f"{unit} {secs:.3f}s" for unit, secs in unit_medians(rounds).items()))
    print("  gauge sample median: %.3f ms" % (1e3 * statistics.median(
        out.gauge for outs, _, _ in rounds for out in outs)))
    for metric, value in metrics.items():
        print(f"  {metric:<36} {value:>16.6g} {units[metric]}")
    print("  not reported, they move with the host:")
    for metric, value in unbounded(rounds, setup).items():
        unit = "cycles/s" if metric.endswith("_per_s") else "s"
        print(f"  {metric:<36} {value:>16.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }


def record_digests(seed: int) -> Dict[str, Dict[str, str]]:
    """One untraced round of every workload at ``seed``: the digests
    a later run at that seed must reproduce."""
    table = {}
    for name, workload in wl.WORKLOADS.items():
        env = {k: None for k in CLEARED_ENV}
        env["REPRO_LEDGER"] = "1" if workload.ledgered else "0"
        with environment(**env):
            outcomes, _, _ = run_round(workload, workload.plan(seed),
                                       Meter())
        bad = [e for o in outcomes for e in o.errors]
        if bad:
            raise RuntimeError(f"{name}: {bad}")
        table[name] = {o.unit: o.digest for o in outcomes}
    return table


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: digests.json default)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="wall-clock seconds of measurement")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: print the per-layer metrics instead")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json at the default seed")
    args = ap.parse_args(argv)
    table = load_digests()
    seed = table["default_seed"] if args.seed is None else args.seed
    if args.record_digests:
        table["digests"] = record_digests(table["default_seed"])
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    workload = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.first_cycle(workload.units[0], workload.plan(seed))
        setup = clock()
        PROBE_GAUGE.stop()
        print(f"first-cycle {setup - PROBE_GAUGE.seconds!r} "
              f"{PROBE_GAUGE.mean!r}", flush=True)
        return 0
    recorded = (table["digests"].get(args.workload, {})
                if seed == table["default_seed"] else None)
    result = run_workload(args.workload, seed, args.seconds,
                          bool(args.trace), recorded)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
