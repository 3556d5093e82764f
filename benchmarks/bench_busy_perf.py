"""Dense-traffic (busy-path) benchmark: vec engine vs object kernel.

The idle-heavy benchmark (``bench_kernel_perf.py`` / BENCH_kernel.json)
tracks what quiescence fast-forward saves; this one tracks the opposite
regime — bursts dense enough that per-object dispatch dominates — which
is what the SoA batch kernels collapse.  One simulation per
architecture that installs a kernel, bursts of messages with large
payloads every few thousand cycles, timed under both engines.
Delivered-message counts must match exactly (the engines are
bit-identical; the full proof lives in
``tests/sim/test_vec_equivalence.py``).  BUS-COM, RMBoC and CoNoChi
run the same object tick on both engines, so they are not timed here.

``--write BENCH_busy.json`` persists the results; ``--check`` exits
nonzero if vec is slower than object on any dense workload (the CI
gate).  ``--smoke`` scales everything down for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_busy_perf.py \
        --write BENCH_busy.json --check
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time

from repro.arch import build_architecture
from repro.sim.vec import make_simulator

#: the architectures that install a batch kernel on the vec engine
DENSE_ARCHS = ("dynoc", "staticmesh", "sharedbus")


def _run_dense(key: str, engine: str, cycles: int, gap: int, burst: int,
               payloads=(256, 1024, 4096), seed: int = 11):
    """One bursty dense run; returns (wall_seconds, delivered_count)."""
    sim = make_simulator(name=f"busy-{key}-{engine}", engine=engine)
    arch = build_architecture(key, sim=sim, seed=seed)
    mods = list(arch.modules)
    rng = random.Random(seed)
    for b in range(max(1, cycles // gap)):
        base = 1 + b * gap
        for _ in range(burst):
            at = base + rng.randrange(0, 50)
            src, dst = rng.sample(mods, 2)
            pb = rng.choice(payloads)
            sim.at(at, lambda _s, a=arch, s=src, d=dst, p=pb:
                   a.ports[s].send(d, p))
    t0 = time.perf_counter()
    sim.run(cycles)
    wall = time.perf_counter() - t0
    return wall, len(arch.log.delivered())


def bench_dense(archs, cycles, gap, burst, repeats):
    rows = []
    for key in archs:
        best = {}
        delivered = {}
        for engine in ("object", "vec"):
            times = []
            for _ in range(repeats):
                wall, n = _run_dense(key, engine, cycles, gap, burst)
                times.append(wall)
                delivered[engine] = n
            best[engine] = min(times)
        if delivered["object"] != delivered["vec"]:
            raise AssertionError(
                f"{key}: engines disagree on delivered count "
                f"({delivered['object']} vs {delivered['vec']})")
        rows.append({
            "arch": key,
            "object_seconds": round(best["object"], 4),
            "vec_seconds": round(best["vec"], 4),
            "speedup": round(best["object"] / best["vec"], 3),
            "delivered": delivered["vec"],
        })
        print(f"dense {key:>10}: object {best['object']:.3f}s  "
              f"vec {best['vec']:.3f}s  "
              f"speedup {rows[-1]['speedup']:.2f}x  "
              f"({delivered['vec']} delivered)")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI scale: fewer cycles and repeats")
    ap.add_argument("--write", metavar="PATH",
                    help="write results JSON to PATH")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if vec is slower than object on any "
                         "dense workload")
    ap.add_argument("--archs", nargs="+", default=list(DENSE_ARCHS),
                    choices=DENSE_ARCHS)
    args = ap.parse_args(argv)

    if args.smoke:
        cycles, gap, burst, repeats = 10_000, 5_000, 100, 1
    else:
        cycles, gap, burst, repeats = 30_000, 5_000, 150, 2

    dense = bench_dense(args.archs, cycles, gap, burst, repeats)

    doc = {
        "schema": "repro.bench_busy/1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": {
            "cycles": cycles, "burst_gap": gap, "burst_size": burst,
            "repeats": repeats,
        },
        "dense": dense,
    }
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.write}")

    if args.check:
        slow = [r for r in dense if r["speedup"] < 1.0]
        if slow:
            print("FAIL: vec slower than object on: "
                  + ", ".join(f"{r['arch']} ({r['speedup']:.2f}x)"
                              for r in slow))
            return 1
        print("check passed: vec >= object on every dense workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
