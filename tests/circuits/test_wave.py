"""Tests for wave-pipelined transfers: rate, window, pipeline timing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit, CircuitState
from repro.circuits.wave import WaveTransfer
from repro.errors import ProtocolError
from repro.network.message import Message


def make_transfer(length=64, rate=4.0, window=256, pipe=4, start=0):
    msg = Message(msg_id=1, src=0, dst=9, length=length, created=0)
    circuit = Circuit(circuit_id=1, src=0, dst=9, switch=0,
                      state=CircuitState.ESTABLISHED)
    circuit.path = [(i, 0) for i in range(pipe)]
    return WaveTransfer(
        message=msg,
        circuit=circuit,
        rate=rate,
        window=window,
        pipe_delay=pipe,
        start_cycle=start,
    )


def run_to_completion(transfer, start=0, limit=100_000):
    cycle = start
    while not transfer.done:
        transfer.advance(cycle)
        cycle += 1
        if cycle - start > limit:
            raise AssertionError("transfer never completed")
    return cycle


class TestValidation:
    def test_zero_rate_rejected(self):
        with pytest.raises(ProtocolError):
            make_transfer(rate=0.0)

    def test_zero_window_rejected(self):
        with pytest.raises(ProtocolError):
            make_transfer(window=0)


class TestTiming:
    def test_unthrottled_send_time(self):
        """With a large window, send time is ceil(L / rate)."""
        t = make_transfer(length=64, rate=4.0, window=1024, pipe=4)
        run_to_completion(t)
        send_cycles = t.last_sent_cycle - 0 + 1
        assert send_cycles == math.ceil(64 / 4.0)

    def test_delivery_lags_by_pipeline_fill(self):
        t = make_transfer(length=64, rate=4.0, window=1024, pipe=7)
        run_to_completion(t)
        assert t.delivered_at == t.last_sent_cycle + 7

    def test_completion_lags_by_round_trip(self):
        t = make_transfer(length=64, rate=4.0, window=1024, pipe=7)
        end = run_to_completion(t)
        assert t.completed_at >= t.last_sent_cycle + 14

    def test_fractional_rate_accumulates(self):
        """rate 0.5 -> one flit every two cycles."""
        t = make_transfer(length=4, rate=0.5, window=64, pipe=1)
        sent_at = []
        cycle = 0
        while t.sent < 4:
            if t.advance(cycle):
                sent_at.append(cycle)
            cycle += 1
        deltas = [b - a for a, b in zip(sent_at, sent_at[1:])]
        assert all(d == 2 for d in deltas)

    def test_four_thirds_rate_send_pattern_is_pinned(self):
        """The accumulator is a float: 3 * (4/3) reaches 3.99.., not 4, so
        the 4th flit leaves one cycle later than exact rationals would
        send it ([1, 1, 2, 1, 1, 2, ...]).  Stored results depend on this
        pattern; neither a closed form nor a cleanup may "fix" it."""
        pattern = [1, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 1]
        t = make_transfer(length=24, rate=4 / 3, window=256, pipe=2)
        assert [t.advance(cycle) for cycle in range(len(pattern))] == pattern
        assert t.last_sent_cycle == 18  # exact rationals would finish at 17
        plan = make_transfer(
            length=24, rate=4 / 3, window=256, pipe=2
        ).schedule(0)
        assert plan.sends() == pattern + [0] * 4
        assert plan.completed_at == 18 + 4

    def test_window_throttles_long_circuit(self):
        """window < rate * rtt must slow the transfer down."""
        fast = make_transfer(length=256, rate=4.0, window=1024, pipe=8)
        slow = make_transfer(length=256, rate=4.0, window=16, pipe=8)
        fast_end = run_to_completion(fast)
        slow_end = run_to_completion(slow)
        assert slow.last_sent_cycle > fast.last_sent_cycle
        # Steady state: at most `window` flits per RTT.
        rtt = 16
        min_cycles = (256 / 16 - 1) * rtt
        assert slow.last_sent_cycle >= min_cycles

    def test_in_flight_never_exceeds_window(self):
        t = make_transfer(length=200, rate=4.0, window=12, pipe=5)
        cycle = 0
        while not t.done:
            t.advance(cycle)
            assert t.sent - t.acked <= 12
            cycle += 1

    def test_single_flit_message(self):
        t = make_transfer(length=1, rate=4.0, window=8, pipe=3)
        run_to_completion(t)
        assert t.delivered_at == t.last_sent_cycle + 3

    def test_zero_pipe_delay(self):
        t = make_transfer(length=8, rate=2.0, window=8, pipe=0)
        run_to_completion(t)
        assert t.delivered_at == t.last_sent_cycle

    def test_done_transfer_stops_counting(self):
        t = make_transfer(length=4, rate=4.0, window=64, pipe=1)
        end = run_to_completion(t)
        assert t.advance(end + 1) == 0


class TestProperties:
    @given(
        length=st.integers(1, 400),
        rate=st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
        window=st.integers(1, 64),
        pipe=st.integers(0, 12),
    )
    def test_always_completes_and_monotone(self, length, rate, window, pipe):
        t = make_transfer(length=length, rate=rate, window=window, pipe=pipe)
        cycle = 0
        prev_sent = 0
        while not t.done:
            t.advance(cycle)
            assert t.sent >= prev_sent
            assert t.acked <= t.sent <= length
            assert t.sent - t.acked <= window
            prev_sent = t.sent
            cycle += 1
            assert cycle < 100_000
        assert t.sent == length
        assert t.delivered_at == t.last_sent_cycle + pipe
        assert t.completed_at >= t.delivered_at

    @given(
        length=st.integers(1, 400),
        rate=st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0, 4 / 3]),
        # Both sides of rate * rtt for every rate and pipe, and equality.
        window=st.integers(1, 300),
        pipe=st.integers(0, 12),
        first=st.sampled_from([0, 5]),
    )
    def test_schedule_equals_stepping_advance(
        self, length, rate, window, pipe, first
    ):
        """schedule() is advance() run ahead of time: same flits in the
        same cycles, same delivery and completion cycle, closed form or
        replayed."""
        t = make_transfer(length=length, rate=rate, window=window, pipe=pipe)
        plan = t.schedule(first)
        assert t.sent == 0 and not t.done and t.delivered_at < 0
        sends = []
        cycle = first
        while not t.done:
            sends.append(t.advance(cycle))
            cycle += 1
            assert cycle - first < 100_000
        assert plan.sends() == sends
        assert plan.steps[0][0] == first
        assert plan.last_sent_cycle == t.last_sent_cycle
        assert plan.delivered_at == t.delivered_at
        assert plan.completed_at == t.completed_at

    @pytest.mark.parametrize("rate", [1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("pipe", [0, 1, 5])
    def test_closed_form_boundary_is_exact(self, rate, pipe):
        """window == rate * max(rtt, 1) is the smallest window that never
        throttles; one flit less does (the replayed side of the line)."""
        edge = int(rate) * max(2 * pipe, 1)
        unthrottled = math.ceil(200 / rate)
        at_edge = make_transfer(200, rate, edge, pipe).schedule(0)
        assert at_edge.last_sent_cycle + 1 == unthrottled
        if edge > 1:
            below = make_transfer(200, rate, edge - 1, pipe).schedule(0)
            assert below.last_sent_cycle + 1 > unthrottled

    @given(
        length=st.integers(1, 300),
        pipe=st.integers(0, 10),
    )
    def test_lower_bound_on_send_time(self, length, pipe):
        """Never faster than ceil(L / rate) regardless of window."""
        t = make_transfer(length=length, rate=4.0, window=32, pipe=pipe)
        run_to_completion(t)
        assert t.last_sent_cycle + 1 >= math.ceil(length / 4.0)


class TestWindowCoveringRoundTrip:
    def test_no_throttling_when_window_covers_round_trip(self):
        """A diameter-length transfer whose window covers the ack round
        trip at the full streaming rate matches the unthrottled send time
        exactly (section 2: a longer window for longer circuits)."""
        from repro.topology import Mesh

        topo = Mesh((8, 8))
        rate, wire_delay = 4.0, 1
        pipe = topo.diameter() * wire_delay
        window = math.ceil(rate * 2 * pipe) + 4
        t = make_transfer(length=512, rate=rate, window=window, pipe=pipe)
        run_to_completion(t)
        assert t.last_sent_cycle + 1 == math.ceil(512 / rate)
