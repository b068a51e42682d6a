"""Checkpoint / resume under *approximate* (epsilon > 0) discovery.

The original resume-parity suite leans on exact and light-epsilon g3
runs; this one covers the approximate corners: the g1/g2 measures
(whose validity tests always pay the exact error computation), the
disk store's spill adoption mid-approximate-search, lhs-limited
approximate runs, and the fingerprint guard rejecting a resume whose
measure or threshold differs from the checkpoint's.
"""

from __future__ import annotations

import json

import pytest

from repro.core.tane import TaneConfig, discover
from repro.exceptions import CheckpointError

from .conftest import assert_identical_results
from .test_checkpoint_resume import run_interrupted


class TestApproximateResumeParity:
    @pytest.mark.parametrize("measure", ["g1", "g2"])
    def test_g1_g2_interrupt_then_resume_identical(
        self, structured_relation, tmp_path, measure
    ):
        baseline = discover(
            structured_relation, TaneConfig(epsilon=0.05, measure=measure)
        )
        run_interrupted(
            structured_relation, tmp_path, level=3, epsilon=0.05, measure=measure
        )
        resumed = discover(
            structured_relation,
            TaneConfig(epsilon=0.05, measure=measure,
                       checkpoint_dir=tmp_path, resume=True),
        )
        assert_identical_results(resumed, baseline)
        assert len(resumed.dependencies) > 0

    def test_disk_store_approximate_resume(self, structured_relation, tmp_path):
        options = (("resident_budget_bytes", 1), ("min_spill_bytes", 0))
        config = dict(epsilon=0.04, store="disk", store_options=options)
        baseline = discover(structured_relation, TaneConfig(**config))
        run_interrupted(structured_relation, tmp_path, level=3, **config)
        resumed = discover(
            structured_relation,
            TaneConfig(**config, checkpoint_dir=tmp_path, resume=True),
        )
        assert_identical_results(resumed, baseline)

    def test_lhs_limited_approximate_resume(self, structured_relation, tmp_path):
        config = dict(epsilon=0.08, max_lhs_size=2)
        baseline = discover(structured_relation, TaneConfig(**config))
        run_interrupted(structured_relation, tmp_path, level=2, **config)
        resumed = discover(
            structured_relation,
            TaneConfig(**config, checkpoint_dir=tmp_path, resume=True),
        )
        assert_identical_results(resumed, baseline)

    def test_resume_of_complete_approximate_run_is_noop(
        self, structured_relation, tmp_path
    ):
        baseline = discover(
            structured_relation, TaneConfig(epsilon=0.05, checkpoint_dir=tmp_path)
        )
        resumed = discover(
            structured_relation,
            TaneConfig(epsilon=0.05, checkpoint_dir=tmp_path, resume=True),
        )
        assert_identical_results(resumed, baseline)


class TestScoreMeasureResumeParity:
    @pytest.mark.parametrize("measure", ["tau", "rfi"])
    def test_interrupt_then_resume_identical(
        self, structured_relation, tmp_path, measure
    ):
        # rfi especially: the permutation bias is a function of the
        # partition shapes alone (not call order), so a resumed run
        # recomputes exactly the values the baseline computed.
        config = dict(epsilon=0.3, measure=measure)
        baseline = discover(structured_relation, TaneConfig(**config))
        run_interrupted(structured_relation, tmp_path, level=3, **config)
        resumed = discover(
            structured_relation,
            TaneConfig(**config, checkpoint_dir=tmp_path, resume=True),
        )
        assert_identical_results(resumed, baseline)
        assert len(resumed.dependencies) > 0


class TestFingerprintGuard:
    def test_resume_with_different_measure_rejected(
        self, structured_relation, tmp_path
    ):
        run_interrupted(
            structured_relation, tmp_path, level=3, epsilon=0.05, measure="g1"
        )
        with pytest.raises(CheckpointError, match="measure"):
            discover(
                structured_relation,
                TaneConfig(epsilon=0.05, measure="g3",
                           checkpoint_dir=tmp_path, resume=True),
            )

    def test_resume_with_different_epsilon_rejected(
        self, structured_relation, tmp_path
    ):
        run_interrupted(structured_relation, tmp_path, level=3, epsilon=0.04)
        with pytest.raises(CheckpointError, match="epsilon"):
            discover(
                structured_relation,
                TaneConfig(epsilon=0.08, checkpoint_dir=tmp_path, resume=True),
            )

    def test_resume_with_different_rfi_budget_rejected(
        self, structured_relation, tmp_path
    ):
        # Checkpoints written while rfi's bias was a Monte Carlo
        # estimate carry its sample budget in the fingerprint.  Their
        # dependencies were accepted against estimated errors, so
        # resuming one under the exact bias must be refused.
        run_interrupted(
            structured_relation, tmp_path, level=3, epsilon=0.3, measure="rfi"
        )
        path = tmp_path / "checkpoint.json"
        payload = json.loads(path.read_text())
        payload["fingerprint"]["rfi_samples"] = 32
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="rfi_samples"):
            discover(
                structured_relation,
                TaneConfig(epsilon=0.3, measure="rfi",
                           checkpoint_dir=tmp_path, resume=True),
            )
