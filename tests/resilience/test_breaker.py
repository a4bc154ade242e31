"""Circuit breaker state machine under a fake clock — zero real waiting."""

import pytest

from repro.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


def tripped(clock, threshold=3, cooldown=10.0, **kwargs):
    breaker = CircuitBreaker(
        "search", threshold=threshold, cooldown=cooldown, clock=clock, **kwargs
    )
    for _ in range(threshold):
        breaker.on_failure()
    return breaker


class TestClosedState:
    def test_starts_closed_and_allows(self, clock):
        breaker = CircuitBreaker("q", clock=clock)
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_success_resets_the_failure_streak(self, clock):
        breaker = CircuitBreaker("q", threshold=3, clock=clock)
        breaker.on_failure()
        breaker.on_failure()
        breaker.on_success()
        breaker.on_failure()
        breaker.on_failure()
        assert breaker.state == CLOSED  # never 3 *consecutive* failures

    def test_trips_open_at_threshold(self, clock):
        breaker = tripped(clock, threshold=3)
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker("q", threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("q", cooldown=-1.0)
        with pytest.raises(ValueError):
            CircuitBreaker("q", half_open_probes=0)


class TestOpenState:
    def test_sheds_until_cooldown_elapses(self, clock):
        breaker = tripped(clock, cooldown=10.0)
        clock.advance(9.9)
        assert not breaker.allow()

    def test_retry_after_counts_down(self, clock):
        breaker = tripped(clock, cooldown=10.0)
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after() == pytest.approx(6.0)

    def test_shed_counter_in_snapshot(self, clock):
        breaker = tripped(clock)
        breaker.allow()
        breaker.allow()
        snap = breaker.snapshot()
        assert snap["state"] == OPEN
        assert snap["shed"] == 2
        assert snap["opens"] == 1


class TestHalfOpenState:
    def test_cooldown_elapsed_admits_one_probe(self, clock):
        breaker = tripped(clock, cooldown=10.0)
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # rationed: only one probe in flight

    def test_probe_success_closes(self, clock):
        breaker = tripped(clock, cooldown=10.0)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.on_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self, clock):
        breaker = tripped(clock, cooldown=10.0)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.on_failure()
        assert breaker.state == OPEN
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.allow()  # probes again after the second cooldown

    def test_release_returns_the_probe_slot(self, clock):
        breaker = tripped(clock, cooldown=10.0)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.release()  # the probe never ran (queue full, cancelled)
        assert breaker.allow()

    def test_multiple_probe_slots(self, clock):
        breaker = tripped(clock, cooldown=10.0, half_open_probes=2)
        clock.advance(10.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()
