"""The simulation run loop.

:class:`Simulator` drives a network object cycle by cycle, feeding it
messages from a workload, and optionally running the deadlock detector and
livelock (progress) monitor from :mod:`repro.verify`.

The engine is deliberately thin: all switching semantics live in the
network; all traffic semantics live in the workload.  The engine only owns
*time* and *stopping conditions*, which keeps it reusable across every
experiment in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.errors import LivelockError, SimulationError
from repro.sim.stats import StatsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.network.message import Message
    from repro.network.network import Network


@dataclass
class SimulationResult:
    """Outcome of one :meth:`Simulator.run` call."""

    cycles: int
    stats: StatsCollector
    completed: bool  # True iff workload exhausted and network drained
    injected: int = 0
    delivered: int = 0
    config_summary: str = ""

    @property
    def undelivered(self) -> int:
        return self.injected - self.delivered

    def summary(self) -> str:
        state = "drained" if self.completed else "cut off"
        return (
            f"{self.cycles} cycles ({state}): {self.delivered}/{self.injected}"
            f" messages delivered, mean latency "
            f"{self.stats.mean_latency():.1f} cycles"
        )


class Simulator:
    """Cycle-driven driver for a :class:`~repro.network.network.Network`.

    Args:
        network: the machine under test.
        workload: an iterable of :class:`~repro.network.message.Message`
            objects ordered by non-decreasing ``created`` time.  ``None``
            means the caller injects messages manually before/between runs.
        deadlock_check_interval: if > 0, run the wait-for-graph cycle check
            every that many cycles (raises
            :class:`~repro.errors.DeadlockError` on a cycle).
        progress_timeout: if > 0, raise
            :class:`~repro.errors.LivelockError` when the network performs
            no work for that many consecutive cycles while messages are
            outstanding.  This is the executable form of "every message
            reaches its destination in finite time".
        on_cycle: optional callback invoked after every simulated cycle,
            for custom probes in tests and benches.  A probe reading
            per-router routing/credit state calls
            ``network.materialize_views()`` first, as the verify readers
            do.
        sampler: optional metric sampler (duck-typed to
            :class:`~repro.observe.metrics.NetworkSampler`): after each
            stepped cycle ``sampler.maybe_sample(net)`` runs, and idle
            fast-forward jumps are capped at ``sampler.next_due`` so
            cadence samples land on their exact cycles.  Unlike
            ``on_cycle`` it does not disable fast-forward.
        fast_forward: when True (the default), an idle network with the
            next workload message still in the future jumps straight to
            that message's creation cycle instead of spinning through
            empty cycles.  Cycle-exact: the skipped cycles would each
            have performed zero work.  Disabled automatically while an
            ``on_cycle`` callback is set (the callback must see every
            cycle).
    """

    def __init__(
        self,
        network: "Network",
        workload: Iterable["Message"] | None = None,
        *,
        deadlock_check_interval: int = 0,
        progress_timeout: int = 0,
        on_cycle: Callable[["Network"], None] | None = None,
        fast_forward: bool = True,
        sampler=None,
    ) -> None:
        self.network = network
        self._pending: Iterator["Message"] | None = (
            iter(workload) if workload is not None else None
        )
        self._next_msg: "Message | None" = None
        self.deadlock_check_interval = deadlock_check_interval
        self.progress_timeout = progress_timeout
        self.on_cycle = on_cycle
        self.fast_forward = fast_forward
        self.sampler = sampler
        self._finished = False
        self._last_progress_cycle = 0
        self._last_work_counter = -1

    # ------------------------------------------------------------------

    def _pump_workload(self) -> bool:
        """Inject all messages whose creation time has arrived.

        Returns True while the workload may still produce messages.
        """
        if self._pending is None:
            return False
        cycle = self.network.cycle
        while True:
            if self._next_msg is None:
                try:
                    self._next_msg = next(self._pending)
                except StopIteration:
                    self._pending = None
                    return False
            if self._next_msg.created > cycle:
                return True
            self.network.inject(self._next_msg)
            self._next_msg = None

    def _check_progress(self) -> None:
        counter = self.network.work_counter
        # Waiting out a retransmission timeout is recovery, not livelock:
        # the reliability layer guarantees bounded work (a retransmit or a
        # DeliveryFailure) once the timer fires, so keep the stall anchor
        # moving.  getattr: engine tests drive stub networks.
        recovery = getattr(self.network, "recovery_pending", None)
        if (
            counter != self._last_work_counter
            or self.network.is_idle()
            or (recovery is not None and recovery())
        ):
            # An idle network is not *stalled* -- keep the timer anchored
            # at the end of the idle gap, so work that starts after a gap
            # (or a fast-forward jump) gets a full timeout window instead
            # of inheriting a stale pre-gap marker.  This also holds
            # across run() slices, which share these markers.
            self._last_work_counter = counter
            self._last_progress_cycle = self.network.cycle
            return
        stalled_for = self.network.cycle - self._last_progress_cycle
        if stalled_for >= self.progress_timeout:
            raise LivelockError(
                f"no work performed for {stalled_for} cycles with "
                f"{self.network.outstanding_messages()} messages outstanding "
                f"at cycle {self.network.cycle}"
            )

    # ------------------------------------------------------------------

    def run(self, max_cycles: int) -> SimulationResult:
        """Advance the network up to ``max_cycles`` cycles.

        Stops early once the workload is exhausted and the network has
        drained.  May be called repeatedly to continue a run in slices.
        """
        if max_cycles < 0:
            raise SimulationError(f"max_cycles must be >= 0, got {max_cycles}")
        if self._finished:
            raise SimulationError("simulation already drained; create a new one")

        net = self.network
        deadline = net.cycle + max_cycles
        more_traffic = True
        while net.cycle < deadline:
            more_traffic = self._pump_workload()
            if not more_traffic and net.is_idle():
                self._finished = True
                break
            if (
                self.fast_forward
                and self.on_cycle is None
                and more_traffic
                and self._next_msg is not None
                and net.is_idle()
            ):
                # Idle gap: every skipped cycle would perform zero work
                # (stepping an idle network only advances the clock), so
                # jumping to the next message's creation cycle -- capped at
                # the deadline -- is cycle-exact.  Periodic deadlock checks
                # on an idle network are no-ops and skip safely too.
                target = min(self._next_msg.created, deadline)
                # A scheduled fault event must be stepped through at its
                # exact cycle: injection pumps *before* net.step(), so a
                # jump past the event would let new messages see stale
                # fault state.  getattr: bench stubs are not Networks.
                sched = getattr(net, "fault_schedule", None)
                if sched is not None:
                    nxt = sched.next_event_cycle()
                    if nxt is not None:
                        target = min(target, nxt)
                # Likewise a pending metric sample: stop the jump at its
                # due cycle so the sample sees that exact instant.
                if self.sampler is not None:
                    target = min(target, self.sampler.next_due)
                if target > net.cycle:
                    net.cycle = target
                    self._last_progress_cycle = target
                    self._last_work_counter = net.work_counter
                    if self.sampler is not None:
                        self.sampler.maybe_sample(net)
                    continue
            net.step()
            if self.sampler is not None:
                self.sampler.maybe_sample(net)
            if (
                self.deadlock_check_interval
                and net.cycle % self.deadlock_check_interval == 0
            ):
                net.check_deadlock()
            if self.progress_timeout:
                self._check_progress()
            if self.on_cycle is not None:
                self.on_cycle(net)
        else:
            # Deadline hit; a fully drained idle network still counts done.
            if not self._pump_workload() and net.is_idle():
                self._finished = True

        # Leave router objects fresh for post-run inspection (end-of-run
        # invariant audits, tests) regardless of the stepping backend.
        materialize = getattr(net, "materialize_views", None)
        if materialize is not None:
            materialize()
        stats = net.stats
        return SimulationResult(
            cycles=net.cycle,
            stats=stats,
            completed=self._finished,
            injected=len(stats.messages),
            delivered=len(stats.delivered_records()),
            config_summary=net.config.describe(),
        )
