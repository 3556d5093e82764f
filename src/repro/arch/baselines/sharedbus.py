"""A conventional single shared bus (AMBA/CoreConnect-style baseline).

One bus, one central arbiter, round-robin grants, burst transfers of a
whole message per grant. Exactly the §2.2 textbook scheme: lowest area
and lowest idle latency of anything in the repository, d_max = 1, and
*no* reconfiguration support — module attach/detach after cycle 0
raises, and the reconfiguration manager refuses to operate on it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.arch.base import CommArchitecture, Message
from repro.core.parameters import (
    DesignParameters,
    ModuleShape,
    Switching,
    Topology,
)
from repro.fabric.area import AreaModel
from repro.fabric.timing import ClockModel
from repro.sim import SLEEP, Component, Simulator

SHAREDBUS_DESCRIPTOR = DesignParameters(
    name="SharedBus",
    arch_type="Bus",
    topology=Topology.ARRAY_1D,
    module_size=ModuleShape.FIXED,
    switching=Switching.TIME_MULTIPLEXED,
    bit_width=(1, 64),
    overhead="addr phase",
    overhead_bits=None,
    max_payload_bytes=None,
    protocol_layers=1,
)


class SharedBus(CommArchitecture, Component):
    """Single-bus baseline: static design, central round-robin arbiter."""

    KEY = "sharedbus"

    def __init__(self, sim: Simulator, num_modules: int = 4,
                 width: int = 32, grant_cycles: int = 2,
                 addr_cycles: int = 1,
                 area_model: Optional[AreaModel] = None,
                 clock_model: Optional[ClockModel] = None):
        if num_modules < 2:
            raise ValueError("need at least 2 modules")
        if grant_cycles < 1 or addr_cycles < 0:
            raise ValueError("invalid bus timing")
        CommArchitecture.__init__(self, sim, width)
        Component.__init__(self, "sharedbus")
        self.num_modules = num_modules
        self.grant_cycles = grant_cycles
        self.addr_cycles = addr_cycles
        self.area_model = area_model or AreaModel()
        self.clock_model = clock_model or ClockModel()
        self._queues: Dict[str, Deque[Message]] = {}
        self._rr_order: list = []
        self._rr_next = 0
        # current transfer: (message, done_at cycle)
        self._current: Optional[Message] = None
        self._done_at = -1
        self._grant_at = -1
        self._halted = False  # fault state: arbitration stopped
        # stretch batching: asleep through a granted burst since cycle
        # _sampled (see flush_samples)
        self._in_burst = False
        self._sampled = -1
        sim.defer_samples(self)

    # ------------------------------------------------------------------
    def _attach_impl(self, module: str, **_: object) -> None:
        if self.sim.cycle != 0:
            raise RuntimeError(
                "SharedBus is a static design: modules are fixed at "
                "design time (cycle 0)"
            )
        self._queues[module] = deque()
        self._rr_order.append(module)

    def _detach_impl(self, module: str) -> None:
        raise RuntimeError(
            "SharedBus is a static design: modules cannot be removed"
        )

    def _submit(self, msg: Message) -> None:
        if msg.src not in self._queues:
            raise KeyError(f"source module {msg.src!r} is not attached")
        self._queues[msg.src].append(msg)
        self.wake()  # new traffic ends any quiescent stretch

    def idle(self) -> bool:
        return self._current is None and all(
            not q for q in self._queues.values()
        )

    # ------------------------------------------------------------------
    def descriptor(self) -> DesignParameters:
        return SHAREDBUS_DESCRIPTOR

    def area_slices(self) -> int:
        return self.area_model.sharedbus_total(
            len(self._rr_order) or self.num_modules, self.width
        )

    def fmax_hz(self) -> float:
        return self.clock_model.fmax_hz("sharedbus", self.width)

    def theoretical_dmax(self) -> int:
        return 1  # the defining limit of a single shared bus

    # ------------------------------------------------------------------
    # fault hooks (repro.faults)
    # ------------------------------------------------------------------
    def halt_bus(self) -> List[Message]:
        """The bus fails: the in-flight burst is lost, arbitration
        stops.  Returns the victim messages for the fault injector."""
        if self._halted:
            raise RuntimeError("bus already halted")
        self._halted = True
        victims: List[Message] = []
        if self._current is not None:
            victims.append(self._current)
            self._current = None
            self._done_at = -1
        self.wake()
        return victims

    def resume_bus(self) -> None:
        if not self._halted:
            raise RuntimeError("bus is not halted")
        self._halted = False
        self.wake()

    # ------------------------------------------------------------------
    # arbiter rebalancing (repro.control)
    # ------------------------------------------------------------------
    def arbitration_order(self) -> List[str]:
        """Service order as the arbiter will scan it at the next grant."""
        n = len(self._rr_order)
        return [self._rr_order[(self._rr_next + i) % n] for i in range(n)]

    def backlogs(self) -> Dict[str, int]:
        """Messages queued at each module's send port."""
        return {m: len(q) for m, q in sorted(self._queues.items())}

    def set_arbitration_order(self, order: List[str]) -> None:
        """Rebalance arbiter priority: install a new scan order.

        The only runtime adaptation a single shared bus allows — the
        control plane rotates a starved module to the front of the
        round-robin scan.  ``order`` must be a permutation of the
        attached modules; the scan restarts at its head.
        """
        if sorted(order) != sorted(self._rr_order):
            raise ValueError(
                f"order {order!r} is not a permutation of the attached "
                f"modules {sorted(self._rr_order)!r}"
            )
        self._rr_order = list(order)
        self._rr_next = 0
        self.sim.stats.counter("sharedbus.arbiter.rebalanced").inc()
        if self.sim.telemetering:
            self.sim.telemetry.count(self.sim.cycle,
                                     "sharedbus.arbiter.rebalanced")
        if self.sim.tracing:
            self.sim.emit("sharedbus", "arbiter_rebalance",
                          head=order[0] if order else "")
        self.wake()

    # ------------------------------------------------------------------
    def words(self, payload_bytes: int) -> int:
        return -(-payload_bytes * 8 // self.width)

    def flush_samples(self, now: int) -> None:
        """Record the ``parallelism == 1`` samples of the burst cycles
        slept through, after ``_sampled`` through ``now - 1``.  The
        in-burst flag is stashed at sleep time: ``halt_bus`` may clear
        the live transfer mid-stretch, but it wakes the bus, and every
        cycle before that wake was still in the burst."""
        if self._in_burst and now - 1 > self._sampled:
            self._parallelism_hist.add_run(1, now - 1 - self._sampled)
            self._sampled = now - 1

    def _sleep_through_burst(self, now: int):
        """Quiescence hint for a granted burst: nothing but the
        per-cycle sample changes until ``_done_at``, so sleep until then
        unless telemetry needs every cycle."""
        if self.sim.telemetering:
            return None
        self._in_burst = True
        self._sampled = now
        return self._done_at

    def tick(self, sim: Simulator):
        now = sim.cycle
        if self._in_burst:
            self.flush_samples(now)
            self._in_burst = False
        if self._halted:
            return SLEEP  # dead bus: resume_bus() wakes us
        if sim.telemetering:
            tel = sim.telemetry
            if self._current is not None:
                tel.link_busy(now, "sharedbus.bus")
            tel.queue_depth(
                now, "sharedbus.arbiter",
                sum(len(q) for q in self._queues.values()),
            )
        if self._current is not None:
            self._note_parallelism(1)
            if now >= self._done_at:
                self._deliver(self._current)
                self._current = None
            else:
                return self._sleep_through_burst(now)
        # arbitration: round-robin over modules with queued traffic
        # whose destination is attached
        n = len(self._rr_order)
        for i in range(n):
            module = self._rr_order[(self._rr_next + i) % n]
            queue = self._queues[module]
            if queue and queue[0].dst in self._queues:
                msg = queue.popleft()
                msg.accepted_cycle = now
                self._rr_next = (self._rr_next + i + 1) % n
                duration = (
                    self.grant_cycles
                    + self.addr_cycles
                    + self.words(msg.payload_bytes)
                )
                self._current = msg
                self._done_at = now + duration - 1
                if sim.journeying:
                    jr = sim.journey
                    # queued-since-creation wait ends at the grant; the
                    # burst (grant + addr phases + payload words) then
                    # occupies the bus through _done_at
                    jr.stamp_to(msg.mid, "arbitration_wait", now)
                    jr.stamp_to(msg.mid, "link_transit", self._done_at)
                self.sim.stats.counter("sharedbus.grants").inc()
                if sim.telemetering:
                    sim.telemetry.backpressure(
                        now, "sharedbus.bus", now - msg.created_cycle
                    )
                return self._sleep_through_burst(now)
        if any(self._queues.values()):
            return None  # queued traffic waiting on a detached destination
        return SLEEP  # bus and queues empty: wait for the next submit


def build_sharedbus(num_modules: int = 4, width: int = 32, seed: int = 1,
                    sim: Optional[Simulator] = None,
                    **kwargs: object) -> SharedBus:
    sim = sim or Simulator(name=f"sharedbus[{num_modules}]")
    arch = SharedBus(sim, num_modules=num_modules, width=width,
                     **kwargs)  # type: ignore[arg-type]
    sim.add(arch)
    for i in range(num_modules):
        arch.attach(f"m{i}")
    return arch
