"""The fault injector: modes, scheduling, determinism, ambient install."""

import pickle

import pytest

from repro.resilience import FAULT_POINTS, FaultInjector, InjectedFault
from repro.resilience.faults import active_injector, fault_scope, fire, install, uninstall


class TestArming:
    def test_unknown_site_rejected(self):
        inj = FaultInjector()
        with pytest.raises(KeyError):
            inj.arm("no.such.site")

    def test_unknown_mode_rejected(self):
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.arm("release.apply", "explode")

    def test_disarm_one_and_all(self):
        inj = FaultInjector()
        inj.arm("release.apply")
        inj.arm("etl.validate")
        inj.disarm("release.apply")
        assert not inj.armed("release.apply")
        assert inj.armed("etl.validate")
        inj.disarm()
        assert not inj.armed("etl.validate")


class TestFiring:
    def test_raise_mode_throws_injected_fault_with_site(self):
        inj = FaultInjector()
        inj.arm("release.apply", "raise")
        with pytest.raises(InjectedFault) as err:
            inj.fire("release.apply")
        assert err.value.site == "release.apply"

    def test_injected_fault_pickles(self):
        fault = InjectedFault("release.apply")
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.site == "release.apply"

    def test_custom_error_factory(self):
        inj = FaultInjector()
        inj.arm("snapshot.save", "raise", error=lambda: OSError("disk on fire"))
        with pytest.raises(OSError):
            inj.fire("snapshot.save")

    def test_delay_mode_uses_injected_sleep(self):
        sleeps = []
        inj = FaultInjector(sleep=sleeps.append)
        inj.arm("worker.execute", "delay", delay=1.5)
        assert inj.fire("worker.execute", "payload") == "payload"
        assert sleeps == [1.5]

    def test_corrupt_mode_replaces_the_payload(self):
        inj = FaultInjector()
        inj.arm("index.staleness", "corrupt", value=True)
        assert inj.fire("index.staleness", False) is True

    def test_corrupt_mode_callable_transforms_the_payload(self):
        inj = FaultInjector()
        inj.arm("index.staleness", "corrupt", value=lambda v: not v)
        assert inj.fire("index.staleness", False) is True

    def test_unarmed_site_passes_payload_through(self):
        inj = FaultInjector()
        assert inj.fire("release.apply", "x") == "x"


class TestScheduling:
    def test_skip_lets_first_hits_through(self):
        inj = FaultInjector()
        inj.arm("release.apply", "raise", skip=2)
        inj.fire("release.apply")
        inj.fire("release.apply")
        with pytest.raises(InjectedFault):
            inj.fire("release.apply")

    def test_times_bounds_firings(self):
        inj = FaultInjector()
        inj.arm("release.apply", "raise", times=1)
        with pytest.raises(InjectedFault):
            inj.fire("release.apply")
        inj.fire("release.apply")  # budget spent: passes
        assert inj.fired("release.apply") == 1

    def test_hits_counts_armed_or_not(self):
        inj = FaultInjector()
        inj.fire("release.apply")
        inj.fire("release.apply")
        assert inj.hits("release.apply") == 2
        assert inj.fired("release.apply") == 0

    def test_probability_schedule_is_reproducible_from_seed(self):
        def schedule(seed):
            inj = FaultInjector(seed=seed)
            inj.arm("release.apply", "raise", probability=0.5)
            fired = []
            for _ in range(50):
                try:
                    inj.fire("release.apply")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        assert any(schedule(7)) and not all(schedule(7))

    def test_choose_site_is_seeded(self):
        sites = sorted(FAULT_POINTS)
        a = FaultInjector(seed=3)
        b = FaultInjector(seed=3)
        assert [a.choose_site(sites) for _ in range(10)] == [
            b.choose_site(sites) for _ in range(10)
        ]


class TestAmbientInjector:
    def test_module_fire_is_noop_without_injector(self):
        assert active_injector() is None
        assert fire("release.apply", "payload") == "payload"

    def test_install_uninstall(self):
        inj = FaultInjector()
        inj.arm("release.apply", "raise")
        install(inj)
        try:
            with pytest.raises(InjectedFault):
                fire("release.apply")
        finally:
            uninstall()
        assert active_injector() is None

    def test_fault_scope_restores_previous(self):
        outer = FaultInjector()
        inner = FaultInjector()
        with fault_scope(outer):
            with fault_scope(inner):
                assert active_injector() is inner
            assert active_injector() is outer
        assert active_injector() is None

    def test_fault_scope_restores_on_error(self):
        inj = FaultInjector()
        inj.arm("release.apply", "raise")
        with pytest.raises(InjectedFault):
            with fault_scope(inj):
                fire("release.apply")
        assert active_injector() is None


class TestCatalog:
    def test_every_site_documented(self):
        for site, description in FAULT_POINTS.items():
            assert "." in site
            assert description
