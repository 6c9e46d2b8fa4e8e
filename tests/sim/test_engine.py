"""Unit tests for the Simulator run loop, using a stub network."""

import pytest

from repro.errors import LivelockError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.stats import StatsCollector


class StubConfig:
    def describe(self):
        return "stub machine"


class StubItem:
    def __init__(self, created):
        self.created = created


class StubNetwork:
    """Minimal duck-typed network: counts injections, drains after a lag."""

    def __init__(self, drain_lag=3, work_every=1):
        self.cycle = 0
        self.work_counter = 0
        self.stats = StatsCollector()
        self.config = StubConfig()
        self.injected = []
        self.drain_lag = drain_lag
        self.work_every = work_every
        self._outstanding = 0
        self.deadlock_checks = 0

    def inject(self, item):
        self.injected.append((item, self.cycle))
        self._outstanding += self.drain_lag

    def step(self):
        self.cycle += 1
        if self._outstanding > 0:
            self._outstanding -= 1
            if self.cycle % self.work_every == 0:
                self.work_counter += 1

    def is_idle(self):
        return self._outstanding == 0

    def outstanding_messages(self):
        return self._outstanding

    def check_deadlock(self):
        self.deadlock_checks += 1


class TestWorkloadPump:
    def test_items_injected_at_their_creation_cycle(self):
        net = StubNetwork()
        items = [StubItem(0), StubItem(5), StubItem(5), StubItem(9)]
        Simulator(net, items).run(50)
        times = [cycle for _item, cycle in net.injected]
        assert times == [0, 5, 5, 9]

    def test_unsorted_future_item_not_lost(self):
        net = StubNetwork()
        items = [StubItem(3)]
        sim = Simulator(net, items)
        sim.run(1)  # deadline before the item is due
        assert net.injected == []
        sim.run(50)
        assert len(net.injected) == 1

    def test_empty_workload_completes_immediately(self):
        net = StubNetwork()
        result = Simulator(net, []).run(100)
        assert result.completed
        assert net.cycle == 0  # nothing to do, no cycles burned


class TestStoppingConditions:
    def test_stops_when_drained(self):
        net = StubNetwork(drain_lag=4)
        result = Simulator(net, [StubItem(0)]).run(1000)
        assert result.completed
        assert net.cycle < 20

    def test_deadline_cuts_off(self):
        net = StubNetwork(drain_lag=100)
        result = Simulator(net, [StubItem(0)]).run(10)
        assert not result.completed
        assert net.cycle == 10

    def test_resume_after_deadline(self):
        net = StubNetwork(drain_lag=30)
        sim = Simulator(net, [StubItem(0)])
        assert not sim.run(10).completed
        assert sim.run(1000).completed

    def test_rerun_after_completion_rejected(self):
        net = StubNetwork()
        sim = Simulator(net, [])
        sim.run(5)
        with pytest.raises(SimulationError):
            sim.run(5)

    def test_negative_deadline_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(StubNetwork(), []).run(-1)


class TestMonitors:
    def test_deadlock_check_interval(self):
        net = StubNetwork(drain_lag=50)
        Simulator(net, [StubItem(0)], deadlock_check_interval=10).run(50)
        assert net.deadlock_checks == 5

    def test_progress_timeout_fires_on_stall(self):
        net = StubNetwork(drain_lag=1000, work_every=10**9)  # never works
        sim = Simulator(net, [StubItem(0)], progress_timeout=20)
        with pytest.raises(LivelockError):
            sim.run(100)

    def test_progress_timeout_tolerates_slow_work(self):
        net = StubNetwork(drain_lag=60, work_every=5)  # works every 5 cycles
        sim = Simulator(net, [StubItem(0)], progress_timeout=20)
        result = sim.run(1000)
        assert result.completed

    def test_on_cycle_callback_sees_every_cycle(self):
        seen = []
        net = StubNetwork(drain_lag=5)
        Simulator(net, [StubItem(0)],
                  on_cycle=lambda n: seen.append(n.cycle)).run(100)
        assert seen == list(range(1, net.cycle + 1))

    def test_router_views_refreshed_once_per_run_not_per_cycle(self):
        # Readers of router state refresh it themselves; the loop only
        # leaves the views fresh for post-run inspection.
        net = StubNetwork(drain_lag=40)
        refreshes = []
        net.materialize_views = lambda: refreshes.append(net.cycle)
        seen = []
        Simulator(net, [StubItem(0)],
                  on_cycle=lambda n: seen.append(n.cycle)).run(100)
        assert len(seen) == 40
        assert refreshes == [net.cycle]



class RecoveringStubNetwork(StubNetwork):
    """Busy but never working, with a retransmission timer pending until
    cycle ``recovery_until`` -- the reliability layer's bounded wait."""

    def __init__(self, recovery_until):
        super().__init__(drain_lag=10**6, work_every=10**9)
        self.recovery_until = recovery_until

    def recovery_pending(self):
        return self.cycle < self.recovery_until


class TestFaultRecoveryDefersLivelock:
    """Waiting out a retransmission timeout is recovery, not livelock: the
    progress timeout counts only cycles with no work and no recovery
    pending."""

    def test_no_raise_while_recovery_pending(self):
        net = RecoveringStubNetwork(recovery_until=10**9)
        sim = Simulator(net, [StubItem(0)], progress_timeout=5)
        result = sim.run(200)
        assert not result.completed
        assert net.cycle == 200

    def test_raises_once_timeout_passes_after_recovery_clears(self):
        net = RecoveringStubNetwork(recovery_until=50)
        sim = Simulator(net, [StubItem(0)], progress_timeout=5)
        sim.run(50)  # last recovery observation at cycle 49
        with pytest.raises(LivelockError, match="no work performed for 5"):
            sim.run(100)
        assert net.cycle == 54

    def test_recovery_reopening_restarts_the_stall_count(self):
        # Three stalled cycles (10..12) between two recovery windows stay
        # under the timeout; the count restarts from the second window.
        net = RecoveringStubNetwork(recovery_until=10)
        net.recovery_pending = lambda: net.cycle < 10 or 13 <= net.cycle < 15
        sim = Simulator(net, [StubItem(0)], progress_timeout=5)
        with pytest.raises(LivelockError, match="no work performed for 5"):
            sim.run(100)
        assert net.cycle == 19

    def test_idle_network_never_raises(self):
        # Nothing in flight for 500 cycles: idle is not stalled, even with
        # fast-forward off so every idle cycle is stepped and checked.
        net = StubNetwork(work_every=10**9)
        sim = Simulator(net, [StubItem(1000)], progress_timeout=5,
                        fast_forward=False)
        sim.run(500)
        assert net.cycle == 500 and net.injected == []


class TestResultShape:
    def test_summary_mentions_state(self):
        net = StubNetwork()
        result = Simulator(net, []).run(5)
        assert "drained" in result.summary()
        assert result.config_summary == "stub machine"

    def test_undelivered_property(self):
        net = StubNetwork()
        result = Simulator(net, []).run(5)
        assert result.undelivered == result.injected - result.delivered
