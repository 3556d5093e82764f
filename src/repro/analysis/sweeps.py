"""Generic parameter-sweep driver.

Runs the minimal scenario over a cartesian grid of architecture/config
parameters and collects the normalized metrics — the workhorse behind
``repro sweep`` and ad-hoc design-space exploration::

    grid = SweepGrid(arch=["buscom", "conochi"],
                     width=[8, 16, 32],
                     payload_bytes=[16, 256])
    results = run_sweep(grid)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence

from repro.arch import build_architecture
from repro.core.scenario import minimal_scenario

#: keys consumed by the scenario rather than the architecture builder
_SCENARIO_KEYS = ("payload_bytes", "pattern", "repeats", "gap_cycles")


class SweepGrid:
    """A cartesian grid of named parameter values."""

    def __init__(self, **axes: Sequence[Any]):
        if "arch" not in axes:
            raise ValueError("a sweep needs an 'arch' axis")
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} is empty")
        self.axes: Dict[str, List[Any]] = {
            name: list(values) for name, values in axes.items()
        }

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def points(self) -> Iterator[Dict[str, Any]]:
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dict(zip(names, combo))


@dataclass
class SweepPoint:
    """One grid point's configuration and measurements."""

    params: Dict[str, Any]
    mean_latency: float
    max_latency: int
    total_cycles: int
    observed_dmax: int
    area_slices: int
    fmax_mhz: float

    def row(self, axis_names: Sequence[str]) -> List[Any]:
        return (
            [self.params[n] for n in axis_names]
            + [round(self.mean_latency, 1), self.max_latency,
               self.observed_dmax, self.area_slices,
               round(self.fmax_mhz)]
        )


def run_sweep(grid: SweepGrid, max_cycles: int = 1_000_000,
              engine: str = None) -> List[SweepPoint]:
    """Run the minimal scenario at every grid point.

    ``engine`` names the engine for every point (``"object"``/``"vec"``;
    None defers to ``REPRO_SIM_ENGINE``); both names run the same
    simulator.
    """
    out: List[SweepPoint] = []
    for params in grid.points():
        build_kwargs = {
            k: v for k, v in params.items()
            if k != "arch" and k not in _SCENARIO_KEYS
        }
        scenario_kwargs = {
            k: v for k, v in params.items() if k in _SCENARIO_KEYS
        }
        arch = build_architecture(params["arch"], engine=engine,
                                  **build_kwargs)
        result = minimal_scenario(arch, max_cycles=max_cycles,
                                  **scenario_kwargs)
        out.append(SweepPoint(
            params=params,
            mean_latency=result.mean_latency,
            max_latency=result.max_latency,
            total_cycles=result.total_cycles,
            observed_dmax=result.observed_dmax,
            area_slices=arch.area_slices(),
            fmax_mhz=arch.fmax_hz() / 1e6,
        ))
    return out


def render_sweep(grid: SweepGrid, points: List[SweepPoint]) -> str:
    """Tabulate sweep results."""
    from repro.core.report import format_table

    axis_names = list(grid.axes)
    headers = axis_names + ["mean lat", "max lat", "d_max", "slices",
                            "f_max MHz"]
    return format_table(headers, [p.row(axis_names) for p in points])
