"""Wave-pipelined data transfers over established circuits.

Once a circuit's acknowledgment has returned, messages stream over it
*contention-free*: the paper removes the flit buffers from the circuit
path entirely, so there is no link-level flow control and no possibility
of blocking.  What remains is:

* the **pipeline fill delay** -- wavefronts take ``wire_delay`` base
  cycles per hop (synchronizers + wire), so the first flit arrives
  ``hops * wire_delay`` cycles after it is injected;
* the **streaming rate** -- ``wave_clock_ratio * channel_width_factor``
  flits per base cycle (the wave clock can be up to 4x the base clock per
  the authors' Spice studies, but splitting physical channels across the
  ``k`` switches narrows each slice);
* the **end-to-end windowing protocol** -- the source may have at most
  ``window`` unacknowledged flits outstanding; acknowledgments ride the
  reverse control path, so the round trip is twice the pipeline delay.
  Too small a window for a long circuit throttles the stream exactly as
  the paper warns ("this protocol requires deep delivery buffers").

Nothing can block an established circuit, so a transfer's whole
timeline is fixed the moment it wins the In-use bit.
:meth:`WaveTransfer.advance` is the executable spec of that timeline: one
base cycle at a time, with a float rate accumulator.  The plane does not
call it per cycle; it asks :meth:`WaveTransfer.schedule` for the timeline
once, at start.  An integral rate whose window covers the round trip
never throttles and has a closed form.  Any other transfer (a window
below ``rate * rtt``, a fractional rate) gets its schedule by replaying
``advance()`` to completion on a scratch copy.  The accumulator is exact
for integral rates only: a rate such as 4/3 accumulates to 3.99.. where
exact rationals would reach 4, and sends that flit one cycle later.  That
send pattern is part of the model (stored results depend on it), which is
why fractional rates are replayed and never computed as ``floor(k * rate)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuits.circuit import Circuit
    from repro.network.message import Message


class TransferSchedule(NamedTuple):
    """A transfer's whole timeline, as :meth:`WaveTransfer.advance` would
    produce it stepped every cycle from its first streaming cycle on.

    ``steps`` is the per-cycle send count in run-length form: ``(cycle,
    flits)`` says the transfer sends ``flits`` per cycle from ``cycle``
    until the next entry's cycle.  The first entry is at the first
    streaming cycle, the last is ``(last_sent_cycle + 1, 0)``.
    """

    steps: tuple[tuple[int, int], ...]
    last_sent_cycle: int
    delivered_at: int
    completed_at: int

    def sends(self) -> list[int]:
        """Flits sent in each cycle, first streaming cycle through
        ``completed_at``."""
        out: list[int] = []
        for (cycle, flits), (until, _) in zip(self.steps, self.steps[1:]):
            out.extend([flits] * (until - cycle))
        out.extend([0] * (self.completed_at - self.last_sent_cycle))
        return out


@dataclass
class WaveTransfer:
    """One message streaming over one established circuit.

    Lifecycle: created when the source NI wins the circuit's In-use bit;
    ``delivered_at`` fires when the last flit reaches the destination;
    ``completed_at`` (last ack back at the source) is when the In-use bit
    clears and the circuit becomes releasable again.  Either
    :meth:`advance` is called every base cycle from the first streaming
    cycle on, or :meth:`schedule` computes the same timeline in one go.
    """

    message: "Message"
    circuit: "Circuit"
    rate: float  # flits per base cycle
    window: int
    pipe_delay: int  # one-way pipeline fill, in base cycles
    start_cycle: int
    sent: int = 0
    acked: int = 0
    _budget: float = 0.0
    # (cycle, cumulative flits sent by end of cycle) for ack computation.
    _sent_log: deque = field(default_factory=deque)
    last_sent_cycle: int = -1
    delivered_at: int = -1
    completed_at: int = -1

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ProtocolError(f"transfer rate must be > 0, got {self.rate}")
        if self.window < 1:
            raise ProtocolError(f"window must be >= 1, got {self.window}")
        if self.pipe_delay < 0:
            raise ProtocolError(f"pipe_delay must be >= 0, got {self.pipe_delay}")

    @property
    def length(self) -> int:
        return self.message.length

    @property
    def rtt(self) -> int:
        """Ack round trip: pipeline down plus ack pipeline back."""
        return 2 * self.pipe_delay

    @property
    def done(self) -> bool:
        return self.completed_at >= 0

    def _acked_by(self, cycle: int) -> int:
        """Cumulative flits whose end-to-end ack has arrived by ``cycle``."""
        horizon = cycle - self.rtt
        acked = self.acked
        while self._sent_log and self._sent_log[0][0] <= horizon:
            acked = self._sent_log.popleft()[1]
        return acked

    def advance(self, cycle: int) -> int:
        """Advance one base cycle; returns flits sent this cycle."""
        if self.done:
            return 0
        self.acked = self._acked_by(cycle)
        moved = 0
        if self.sent < self.length:
            self._budget += self.rate
            in_flight = self.sent - self.acked
            can_send = min(
                int(self._budget), self.window - in_flight, self.length - self.sent
            )
            if can_send > 0:
                self.sent += can_send
                self._budget -= can_send
                self._sent_log.append((cycle, self.sent))
                self.last_sent_cycle = cycle
                moved = can_send
        if self.sent == self.length:
            if self.delivered_at < 0:
                self.delivered_at = self.last_sent_cycle + self.pipe_delay
            if cycle >= self.last_sent_cycle + self.rtt:
                self.completed_at = cycle
        return moved

    def schedule(self, first: int) -> TransferSchedule:
        """The timeline of this (not yet advanced) transfer if its first
        :meth:`advance` call is at cycle ``first``.  Does not mutate it.

        With an integral rate ``r`` and ``window >= r * max(rtt, 1)`` the
        window never binds: at most ``r * (rtt - 1)`` flits are unacked
        when a cycle starts, so ``r`` more always fit, and the transfer
        sends ``r`` flits for ``length // r`` cycles and then the rest.
        Everything else is replayed through :meth:`advance`.
        """
        rate, length = self.rate, self.length
        if float(rate).is_integer() and self.window >= rate * max(self.rtt, 1):
            per_cycle = int(rate)
            full, rest = divmod(length, per_cycle)
            steps = [(first, per_cycle)] if full else []
            if rest:
                steps.append((first + full, rest))
            last_sent = first + full if rest else first + full - 1
        else:
            replay = WaveTransfer(
                self.message, self.circuit, rate, self.window,
                self.pipe_delay, self.start_cycle,
            )
            steps = []
            cycle = first
            while not replay.done:
                moved = replay.advance(cycle)
                if not steps or moved != steps[-1][1]:
                    steps.append((cycle, moved))
                cycle += 1
            last_sent = replay.last_sent_cycle
            if steps[-1][1] == 0:  # the ack drain after the last flit
                steps.pop()
        steps.append((last_sent + 1, 0))
        return TransferSchedule(
            steps=tuple(steps),
            last_sent_cycle=last_sent,
            delivered_at=last_sent + self.pipe_delay,
            completed_at=last_sent + self.rtt,
        )

