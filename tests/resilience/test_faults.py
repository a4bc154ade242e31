"""The fault injector: modes, scheduling, the ambient scope, and the
fault-point catalog."""

import pickle
import re
from pathlib import Path

import pytest

from repro.resilience import FAULT_POINTS, FaultInjector, InjectedFault
from repro.resilience.faults import fault_scope, fire

ROOT = Path(__file__).resolve().parents[2]


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


class TestAmbientInjector:
    def test_module_fire_is_noop_without_injector(self):
        assert fire("release.apply", "payload") == "payload"

    def test_fault_scope_restores_previous(self):
        outer = FaultInjector()
        inner = FaultInjector()
        with fault_scope(outer):
            with fault_scope(inner):
                fire("release.apply")
            fire("release.apply")
        fire("release.apply")
        assert inner.hits("release.apply") == 1
        assert outer.hits("release.apply") == 1

    def test_fault_scope_restores_on_error(self):
        inj = FaultInjector()
        inj.arm("release.apply", "raise")
        with pytest.raises(InjectedFault):
            with fault_scope(inj):
                fire("release.apply")
        assert fire("release.apply", "payload") == "payload"
        assert inj.hits("release.apply") == 1


class TestCatalog:
    def test_every_site_documented(self):
        for site, description in FAULT_POINTS.items():
            assert "." in site
            assert description

    def test_catalog_is_exactly_the_sites_the_source_fires(self):
        """Every ``fire("…")`` literal under ``src/`` has a catalog
        entry, and the catalog holds no site nothing fires."""
        fired = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            fired.update(re.findall(r"\bfire\(\s*[\"']([a-z_.]+)[\"']", text))
        assert fired == set(FAULT_POINTS)

    def test_every_site_has_a_docs_row(self):
        doc = (ROOT / "docs" / "resilience.md").read_text(encoding="utf-8")
        rows = set(re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", doc, re.MULTILINE))
        assert rows == set(FAULT_POINTS)
