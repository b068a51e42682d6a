"""Level-granular checkpoint / resume.

The acceptance contract: a run interrupted at any level boundary and
resumed from its checkpoint produces dependencies, keys, and every
deterministic search counter identical to an uninterrupted run — for
exact and approximate discovery, for the memory and the disk store,
and for both polite interruptions (an exception unwinding the driver)
and impolite ones (SIGKILL of the whole driver process).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import struct

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager, load_checkpoint
from repro.core.tane import TaneConfig, discover
from repro.exceptions import CheckpointError, ConfigurationError
from repro.testing import faults

from ..conftest import level_opens, tracer_calling
from .conftest import assert_identical_results


class Interrupt(Exception):
    """Raised by a span sink to abort the search mid-run."""


def interrupt_at(level: int):
    """A tracer raising :class:`Interrupt` when ``level`` opens."""
    def interrupt(span):
        if level_opens(span, level):
            raise Interrupt(f"level {level}")

    return tracer_calling(interrupt)


def run_interrupted(relation, checkpoint_dir, *, level=3, **config_kwargs):
    with pytest.raises(Interrupt):
        discover(
            relation,
            TaneConfig(
                checkpoint_dir=checkpoint_dir,
                tracer=interrupt_at(level),
                **config_kwargs,
            ),
        )


class TestResumeParity:
    @pytest.mark.parametrize("epsilon", [0.0, 0.04])
    @pytest.mark.parametrize("level", [2, 3])
    def test_interrupt_then_resume_identical(
        self, structured_relation, tmp_path, epsilon, level
    ):
        baseline = discover(structured_relation, TaneConfig(epsilon=epsilon))
        run_interrupted(structured_relation, tmp_path, level=level, epsilon=epsilon)
        resumed = discover(
            structured_relation,
            TaneConfig(epsilon=epsilon, checkpoint_dir=tmp_path, resume=True),
        )
        assert_identical_results(resumed, baseline)

    def test_interrupt_then_resume_disk_store(self, structured_relation, tmp_path):
        baseline = discover(structured_relation, TaneConfig(store="disk"))
        run_interrupted(structured_relation, tmp_path, store="disk")
        resumed = discover(
            structured_relation,
            TaneConfig(store="disk", checkpoint_dir=tmp_path, resume=True),
        )
        assert_identical_results(resumed, baseline)

    def test_resume_recomputes_over_an_old_format_spill(
        self, structured_relation, tmp_path
    ):
        # Spills of earlier versions were untagged int64 arrays.  Planted
        # for every checkpointed mask (as a wrong partition: one class of
        # every row), they must be recomputed, not adopted.
        baseline = discover(structured_relation, TaneConfig(store="disk"))
        run_interrupted(structured_relation, tmp_path, store="disk")
        state = load_checkpoint(tmp_path)
        masks = [mask for mask in state.level if bin(mask).count("1") >= 2]
        assert masks
        rows = structured_relation.num_rows
        old_format = (
            struct.pack("<qq", rows, 2)
            + np.arange(rows, dtype=np.int64).tobytes()
            + np.array([0, rows], dtype=np.int64).tobytes()
        )
        spill = tmp_path / "spill"
        spill.mkdir(exist_ok=True)
        for mask in masks:
            (spill / f"partition-{mask:x}.bin").write_bytes(old_format)
        resumed = discover(
            structured_relation,
            TaneConfig(store="disk", checkpoint_dir=tmp_path, resume=True),
        )
        assert_identical_results(resumed, baseline)

    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_resume_at_the_rank_only_level(self, structured_relation, tmp_path, store):
        # With |X| <= 2 the third level is the last: it is computed
        # rank-only and never stored, so resume must rebuild its ranks.
        config = dict(max_lhs_size=2, store=store)
        baseline = discover(structured_relation, TaneConfig(**config))
        run_interrupted(structured_relation, tmp_path, level=3, **config)
        state = load_checkpoint(tmp_path)
        assert state.level_number == 3 and not state.complete
        assert state.level and all(bin(mask).count("1") == 3 for mask in state.level)
        resumed = discover(
            structured_relation,
            TaneConfig(checkpoint_dir=tmp_path, resume=True, **config),
        )
        assert_identical_results(resumed, baseline)

    def test_resume_of_complete_run_is_a_no_op(self, structured_relation, tmp_path):
        baseline = discover(structured_relation, TaneConfig(checkpoint_dir=tmp_path))
        state = load_checkpoint(tmp_path)
        assert state is not None and state.complete and state.level == []
        resumed = discover(
            structured_relation, TaneConfig(checkpoint_dir=tmp_path, resume=True)
        )
        assert_identical_results(resumed, baseline)

    def test_resume_without_checkpoint_starts_fresh(
        self, structured_relation, tmp_path
    ):
        baseline = discover(structured_relation, TaneConfig())
        result = discover(
            structured_relation, TaneConfig(checkpoint_dir=tmp_path, resume=True)
        )
        assert_identical_results(result, baseline)


class TestDriverCrash:
    """SIGKILL the whole driver process — no finally blocks run."""

    @staticmethod
    def _crash_child(relation, checkpoint_dir, config_kwargs):
        def die(span):
            if level_opens(span, 3):
                os.kill(os.getpid(), signal.SIGKILL)

        discover(
            relation,
            TaneConfig(
                checkpoint_dir=checkpoint_dir,
                tracer=tracer_calling(die),
                **config_kwargs,
            ),
        )

    def _kill_mid_level(self, relation, checkpoint_dir, **config_kwargs):
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=self._crash_child, args=(relation, checkpoint_dir, config_kwargs)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL

    def test_sigkill_then_resume_memory_store(self, structured_relation, tmp_path):
        baseline = discover(structured_relation, TaneConfig())
        self._kill_mid_level(structured_relation, tmp_path)
        resumed = discover(
            structured_relation, TaneConfig(checkpoint_dir=tmp_path, resume=True)
        )
        assert_identical_results(resumed, baseline)

    def test_sigkill_then_resume_reuses_spill_files(
        self, structured_relation, tmp_path
    ):
        # A tiny budget with pinning disabled forces constant spilling,
        # so the crash leaves spill files behind for resume to adopt.
        options = (("resident_budget_bytes", 4096), ("min_spill_bytes", 0))
        baseline = discover(
            structured_relation, TaneConfig(store="disk", store_options=options)
        )
        self._kill_mid_level(
            structured_relation, tmp_path, store="disk", store_options=options
        )
        leftover = list((tmp_path / "spill").glob("partition-*.bin"))
        assert leftover, "crashed run should leave its spill files on disk"
        resumed = discover(
            structured_relation,
            TaneConfig(
                store="disk",
                store_options=options,
                checkpoint_dir=tmp_path,
                resume=True,
            ),
        )
        assert_identical_results(resumed, baseline)


class TestCheckpointSafety:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ConfigurationError):
            TaneConfig(resume=True)

    def test_fingerprint_mismatch_raises(self, structured_relation, tmp_path):
        run_interrupted(structured_relation, tmp_path)
        with pytest.raises(CheckpointError):
            discover(
                structured_relation,
                TaneConfig(epsilon=0.2, checkpoint_dir=tmp_path, resume=True),
            )

    def test_corrupt_checkpoint_raises(self, structured_relation, tmp_path):
        run_interrupted(structured_relation, tmp_path)
        (tmp_path / "checkpoint.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            discover(
                structured_relation,
                TaneConfig(checkpoint_dir=tmp_path, resume=True),
            )

    def test_unsupported_version_raises(self, structured_relation, tmp_path):
        run_interrupted(structured_relation, tmp_path)
        (tmp_path / "checkpoint.json").write_text('{"version": 999}', encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path)

    def test_failed_save_keeps_previous_checkpoint(
        self, structured_relation, tmp_path
    ):
        run_interrupted(structured_relation, tmp_path, level=2)
        before = (tmp_path / "checkpoint.json").read_bytes()
        with faults.inject("checkpoint.save", OSError("disk full")):
            with pytest.raises(OSError):
                discover(
                    structured_relation,
                    TaneConfig(checkpoint_dir=tmp_path, resume=True),
                )
        # The atomic write never replaced the good checkpoint, and no
        # temp files leaked next to it.
        assert (tmp_path / "checkpoint.json").read_bytes() == before
        assert not list(tmp_path.glob("checkpoint.json.*.tmp"))
        # The surviving checkpoint still resumes to the right answer.
        baseline = discover(structured_relation, TaneConfig())
        resumed = discover(
            structured_relation, TaneConfig(checkpoint_dir=tmp_path, resume=True)
        )
        assert_identical_results(resumed, baseline)

    def test_save_is_atomic_per_level(self, structured_relation, tmp_path):
        manager = CheckpointManager(tmp_path)
        run_interrupted(structured_relation, tmp_path, level=3)
        state = manager.load()
        assert state is not None
        assert state.level_number == 3
        assert not state.complete
        assert state.level, "a mid-run checkpoint carries the next level"
