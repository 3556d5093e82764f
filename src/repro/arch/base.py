"""Common interface of all four communication architectures.

A :class:`CommArchitecture` owns a :class:`~repro.sim.Simulator`, a set
of attached hardware modules, and a :class:`MessageLog`. Modules talk to
the interconnect exclusively through :class:`ArchPort` objects, so every
workload generator and every metric works unchanged across RMBoC,
BUS-COM, DyNoC and CoNoChi.

The measurement hooks mirror the paper's taxonomy:

* message latency (creation to last-word delivery) feeds l_p studies;
* the per-cycle count of *independent concurrent transfers* feeds the
  parallelism measure d_max;
* byte counters feed effective-bandwidth studies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.parameters import DesignParameters
from repro.sim import Simulator

_msg_ids = itertools.count()

#: construction observer — see :func:`set_new_arch_hook`
_NEW_ARCH_HOOK: Optional[Callable[["CommArchitecture"], None]] = None


def set_new_arch_hook(
    hook: Optional[Callable[["CommArchitecture"], None]],
) -> Optional[Callable[["CommArchitecture"], None]]:
    """Install a hook called with every newly constructed architecture
    (the chaos harness uses this to discover which architectures an
    experiment builds); returns the previous hook for restoration."""
    global _NEW_ARCH_HOOK
    prev = _NEW_ARCH_HOOK
    _NEW_ARCH_HOOK = hook
    return prev


@dataclass
class Message:
    """One application-level transfer request."""

    src: str
    dst: str
    payload_bytes: int
    tag: str = ""
    created_cycle: int = -1
    accepted_cycle: int = -1   # first cycle the interconnect started serving it
    delivered_cycle: int = -1  # cycle the last payload word arrived
    dropped: bool = False      # lost to an injected fault (never delivered)
    mid: int = field(default_factory=lambda: next(_msg_ids))

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError(f"payload must be positive, got {self.payload_bytes}")
        if self.src == self.dst:
            raise ValueError(f"message to self ({self.src!r})")

    @property
    def delivered(self) -> bool:
        return self.delivered_cycle >= 0

    @property
    def latency(self) -> int:
        """Cycles from injection to delivery of the last payload word."""
        if not self.delivered:
            raise ValueError(f"message {self.mid} not delivered")
        return self.delivered_cycle - self.created_cycle


class MessageLog:
    """Central record of all messages injected into one architecture."""

    def __init__(self) -> None:
        self._messages: List[Message] = []

    def sent(self, msg: Message) -> None:
        self._messages.append(msg)

    @property
    def messages(self) -> Tuple[Message, ...]:
        return tuple(self._messages)

    @property
    def total(self) -> int:
        return len(self._messages)

    def delivered(self) -> List[Message]:
        return [m for m in self._messages if m.delivered]

    def pending(self) -> List[Message]:
        return [m for m in self._messages
                if not m.delivered and not m.dropped]

    def dropped(self) -> List[Message]:
        return [m for m in self._messages if m.dropped]

    def latencies(
        self, src: Optional[str] = None, dst: Optional[str] = None
    ) -> List[int]:
        return [
            m.latency
            for m in self._messages
            if m.delivered
            and (src is None or m.src == src)
            and (dst is None or m.dst == dst)
        ]

    def delivered_payload_bytes(self) -> int:
        return sum(m.payload_bytes for m in self._messages if m.delivered)

    def all_delivered(self) -> bool:
        """Everything not lost to an injected fault has arrived."""
        return all(m.delivered or m.dropped for m in self._messages)

    def summary_by_pair(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per (src, dst) pair: message count, delivered payload bytes,
        mean latency — the raw material of fairness and hotspot studies."""
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for m in self._messages:
            entry = out.setdefault(
                (m.src, m.dst),
                {"messages": 0, "bytes": 0, "_lat_sum": 0.0, "_lat_n": 0},
            )
            entry["messages"] += 1
            if m.delivered:
                entry["bytes"] += m.payload_bytes
                entry["_lat_sum"] += m.latency
                entry["_lat_n"] += 1
        for entry in out.values():
            n = entry.pop("_lat_n")
            total = entry.pop("_lat_sum")
            entry["mean_latency"] = total / n if n else float("nan")
        return out


class ArchPort:
    """A hardware module's attachment point to the interconnect."""

    def __init__(self, arch: "CommArchitecture", module: str):
        self.arch = arch
        self.module = module
        self.received: List[Message] = []

    def send(self, dst: str, payload_bytes: int, tag: str = "") -> Message:
        """Inject a message; returns the tracked :class:`Message`."""
        # per-architecture ids: traces of identical runs are identical,
        # whatever else ran in the process before them
        msg = Message(src=self.module, dst=dst, payload_bytes=payload_bytes,
                      tag=tag, mid=next(self.arch._mid_seq))
        sim = self.arch.sim
        msg.created_cycle = sim.cycle
        self.arch.log.sent(msg)
        # open the provenance record before _submit so the injection
        # path's stamps land on it (sampling decides inside start())
        if sim.journeying:
            sim.journey.start(msg, sim.cycle)
        self.arch._submit(msg)
        return msg

    def take_received(self) -> List[Message]:
        """Pop and return everything delivered since the last call."""
        out, self.received = self.received, []
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"ArchPort({self.arch.name}:{self.module})"


class CommArchitecture:
    """Base class: lifecycle, ports, logging, parallelism probes.

    Subclasses implement ``_submit`` (accept a message for transport),
    ``idle`` (no in-flight traffic), ``descriptor`` (Table 1 row),
    ``area_slices``/``fmax_hz`` (Tables 2-3), and the reconfiguration
    hooks meaningful for their style.
    """

    #: canonical lower-case architecture key ("rmboc", ...)
    KEY: str = "base"

    def __init__(self, sim: Simulator, width: int):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        # `_sim` is shared with Component for subclasses inheriting both;
        # Component.bind() verifies the simulators agree.
        self._sim = sim
        self.width = width
        self.log = MessageLog()
        self.ports: Dict[str, ArchPort] = {}
        self._mid_seq = itertools.count()
        # one sample per active cycle: the biggest sample store in long
        # traffic runs, and only ever read via max/mean/count — so the
        # bounded bucketed mode loses nothing (exact min/max/mean) while
        # keeping memory O(1) in run length
        self._parallelism_hist = sim.stats.histogram(
            "parallelism.concurrent", mode="bucketed"
        )
        # fault-injection guard: raised only while a non-empty
        # FaultSchedule is attached, so the fault-free hot path costs
        # one dead boolean test (mirrors sim.tracing/sim.telemetering)
        self.faulting = False
        self.fault_injector: Optional[Any] = None
        if _NEW_ARCH_HOOK is not None:
            _NEW_ARCH_HOOK(self)

    @property
    def sim(self) -> Simulator:
        return self._sim

    # -- module lifecycle ------------------------------------------------
    @property
    def modules(self) -> Tuple[str, ...]:
        return tuple(self.ports)

    def attach(self, module: str, **placement: Any) -> ArchPort:
        """Attach a module and return its port."""
        if module in self.ports:
            raise ValueError(f"module {module!r} already attached")
        self._attach_impl(module, **placement)
        port = ArchPort(self, module)
        self.ports[module] = port
        return port

    def detach(self, module: str) -> None:
        if module not in self.ports:
            raise KeyError(f"module {module!r} is not attached")
        self._detach_impl(module)
        del self.ports[module]

    # -- transport (subclass responsibilities) ----------------------------
    def _attach_impl(self, module: str, **placement: Any) -> None:
        raise NotImplementedError

    def _detach_impl(self, module: str) -> None:
        raise NotImplementedError

    def _submit(self, msg: Message) -> None:
        raise NotImplementedError

    def idle(self) -> bool:
        """True when no traffic is in flight anywhere in the interconnect."""
        raise NotImplementedError

    # -- delivery helper ---------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        if self.faulting and self.fault_injector.intercept_delivery(msg):
            return  # consumed by an injected fault (dropped, crashed dst)
        sim = self.sim
        msg.delivered_cycle = sim.cycle
        port = self.ports.get(msg.dst)
        if port is not None:
            port.received.append(msg)
        sim.stats.counter("delivered.messages").inc()
        sim.stats.counter("delivered.bytes").inc(msg.payload_bytes)
        sim.stats.histogram("latency.message").add(msg.latency)
        # every architecture delivers through here, so one guarded site
        # gives per-flow latency/jitter telemetry across all six fabrics
        if sim.telemetering:
            sim.telemetry.record_flow(sim.cycle, msg.src, msg.dst,
                                      msg.latency, msg.payload_bytes)
        if sim.journeying:
            sim.journey.finalize(msg, sim.cycle)

    def _note_parallelism(self, concurrent_transfers: int) -> None:
        """Record the number of independent transfers active this cycle."""
        if concurrent_transfers > 0:
            self._parallelism_hist.add(concurrent_transfers)

    @property
    def observed_dmax(self) -> int:
        """Maximum concurrent independent transfers seen so far."""
        h = self._parallelism_hist
        return int(h.max) if h.count else 0

    # -- paper-facing metadata ---------------------------------------------
    def descriptor(self) -> DesignParameters:
        raise NotImplementedError

    def area_slices(self) -> int:
        raise NotImplementedError

    def fmax_hz(self) -> float:
        raise NotImplementedError

    def theoretical_dmax(self) -> int:
        raise NotImplementedError

    # -- convenience -------------------------------------------------------
    def run_to_completion(self, max_cycles: int = 1_000_000) -> int:
        """Run until every injected message is delivered and the fabric
        drains; returns the final cycle."""
        return self.sim.run_until(
            lambda s: self.log.all_delivered() and self.idle(),
            max_cycles=max_cycles,
        )
