"""Chaos harness, release path (``repro-mdw chaos``).

Crashes land mid-stage, mid-delta-apply, mid-DRed-maintenance or
mid-validation of an incremental ``apply_release``; recovery is a plain
re-apply (delta application is convergent) and the final state is
compared bit-identically against a full-rebuild reference.
"""

from repro.resilience.chaos import RELEASE_SITES, run_chaos


class TestIncrementalChaos:
    def test_iterations_converge(self):
        report = run_chaos(seed=5, iterations=3, documents=2, instances=5)
        assert len(report.iterations) == 3
        assert report.ok, report.summary()

    def test_crashes_actually_fire_and_recover_by_reapply(self):
        # enough iterations that at least one armed fault triggers
        report = run_chaos(seed=1, iterations=4, documents=2, instances=5)
        assert report.ok, report.summary()
        assert report.crashes > 0
        for it in report.iterations:
            assert it.site in RELEASE_SITES
            assert it.recovery_action == "reapply"
