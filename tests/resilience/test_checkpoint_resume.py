"""Level-granular checkpoint / resume.

The acceptance contract: a run interrupted at any level boundary and
resumed from its checkpoint produces dependencies, keys, and every
deterministic search counter identical to an uninterrupted run — for
exact and approximate discovery, for the memory and the disk store,
and for both polite interruptions (an exception unwinding the driver)
and impolite ones (SIGKILL of the whole driver process).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import struct

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointManager, load_checkpoint
from repro.core.tane import TaneConfig, discover
from repro.exceptions import CheckpointError, ConfigurationError
from repro.model.relation import Relation
from repro.partition.vectorized import _DENSE_MAX_ROWS
from repro.testing import faults

from ..conftest import copies_relation, level_opens, tracer_calling
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

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_interrupt_then_resume_object_masks(self, tmp_path, epsilon):
        # 65 attributes: the snapshot and the restored levels hold masks
        # past bit 63.
        relation = copies_relation()
        baseline = discover(relation, TaneConfig(epsilon=epsilon))
        run_interrupted(relation, tmp_path, level=3, epsilon=epsilon)
        resumed = discover(
            relation, TaneConfig(epsilon=epsilon, checkpoint_dir=tmp_path, resume=True)
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
        masks = [mask for mask in state.snapshot["level"] if bin(mask).count("1") >= 2]
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

    @pytest.mark.parametrize("planted", ["foreign", "other masks"])
    def test_resume_recomputes_over_a_foreign_level_spill(
        self, structured_relation, tmp_path, planted
    ):
        # A level-block spill is adopted only when it carries this
        # format's tag and exactly the checkpointed level's masks.
        baseline = discover(structured_relation, TaneConfig(store="disk"))
        run_interrupted(structured_relation, tmp_path, store="disk")
        state = load_checkpoint(tmp_path)
        size = bin(state.snapshot["level"][0]).count("1")
        spill = tmp_path / "spill"
        spill.mkdir(exist_ok=True)
        if planted == "foreign":
            content = b"not a level block" * 8
        else:
            # This format's header (one 64-bit word per mask), one mask short.
            masks = np.array(state.snapshot["level"][1:], dtype=np.int64)
            header = struct.pack("<8sqqqq", b"TANEblk\x02", masks.size, 0, 0, 1)
            content = header + masks.tobytes() + np.zeros(masks.size, np.int64).tobytes()
        (spill / f"level-{size}.bin").write_bytes(content)
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
        level = state.snapshot["level"]
        assert state.step == 2 and not state.complete  # level 3 runs next
        assert level and all(bin(mask).count("1") == 3 for mask in level)
        resumed = discover(
            structured_relation,
            TaneConfig(checkpoint_dir=tmp_path, resume=True, **config),
        )
        assert_identical_results(resumed, baseline)

    def test_resume_of_complete_run_is_a_no_op(self, structured_relation, tmp_path):
        baseline = discover(structured_relation, TaneConfig(checkpoint_dir=tmp_path))
        state = load_checkpoint(tmp_path)
        assert state is not None and state.complete and state.snapshot["level"] == []
        resumed = discover(
            structured_relation, TaneConfig(checkpoint_dir=tmp_path, resume=True)
        )
        assert_identical_results(resumed, baseline)

    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_complete_resume_restores_no_partitions(
        self, structured_relation, tmp_path, store
    ):
        config = dict(max_lhs_size=2, store=store)
        baseline = discover(structured_relation, TaneConfig(checkpoint_dir=tmp_path, **config))
        restores = []

        def record(span):
            if span.name == "checkpoint.restore" and span.end is not None:
                restores.append(span.attributes)

        resumed = discover(
            structured_relation,
            TaneConfig(
                checkpoint_dir=tmp_path, resume=True, tracer=tracer_calling(record), **config
            ),
        )
        assert [attributes["masks_restored"] for attributes in restores] == [0]
        assert_identical_results(resumed, baseline)

    def test_resume_without_checkpoint_starts_fresh(
        self, structured_relation, tmp_path
    ):
        baseline = discover(structured_relation, TaneConfig())
        result = discover(
            structured_relation, TaneConfig(checkpoint_dir=tmp_path, resume=True)
        )
        assert_identical_results(result, baseline)


def _tiled_past_dense(relation):
    """``relation`` repeated past the dense kernel's row limit, so a
    levelwise walk stores one partition per mask, not one block per
    level (same dependencies: the copies agree everywhere)."""
    copies = _DENSE_MAX_ROWS // relation.num_rows + 1
    return Relation.from_codes(
        [np.tile(relation.column_codes(i), copies) for i in range(relation.num_attributes)],
        list(relation.schema.attribute_names),
    )


class TestFaultWhileGenerating:
    """A fault while level 3 generates level 4, after level 2 is
    reclaimed: the last checkpoint (after level 2) names level 2 as the
    previous level, yet the disk store no longer holds it."""

    # Every entry spills as soon as it is stored.
    OPTIONS = (("resident_budget_bytes", 1), ("min_spill_bytes", 0))

    @staticmethod
    def _arm_in_level_3_generation(stack):
        opened = []

        def arm(span):
            if span.end is not None:
                return
            if span.name == "level":
                opened.append(span.attributes["level"])
            elif span.name == "generate_next_level" and opened[-1] == 3:
                stack.enter_context(faults.inject("tane.products.consume"))

        return tracer_calling(arm)

    @pytest.mark.parametrize("form", ["block", "per-mask"])
    def test_resume_recomputes_the_reclaimed_level(self, structured_relation, tmp_path, form):
        relation = structured_relation if form == "block" else _tiled_past_dense(structured_relation)
        config = dict(store="disk", store_options=self.OPTIONS)
        baseline = discover(relation, TaneConfig(**config))
        assert len(baseline.statistics.level_sizes) >= 4
        with contextlib.ExitStack() as stack:
            with pytest.raises(faults.InjectedFault):
                discover(
                    relation,
                    TaneConfig(
                        checkpoint_dir=tmp_path,
                        tracer=self._arm_in_level_3_generation(stack),
                        **config,
                    ),
                )
        state = load_checkpoint(tmp_path)
        assert state.step == 2 and all(
            bin(mask).count("1") == 2 for mask in state.snapshot["previous_level_masks"]
        )
        # Level 3's spills survive the crash for resume to adopt; level
        # 2's went with its reclaim, so resume recomputes it.
        spilled = {path.name for path in (tmp_path / "spill").glob("*.bin")}
        if form == "block":
            assert "level-3.bin" in spilled and "level-2.bin" not in spilled
        else:
            sizes = {bin(int(name[len("partition-"):-4], 16)).count("1") for name in spilled}
            assert 3 in sizes and 2 not in sizes
        resumed = discover(relation, TaneConfig(checkpoint_dir=tmp_path, resume=True, **config))
        assert_identical_results(resumed, baseline)


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
        # A relation this short keeps each level as one block, spilled
        # as one file per level.
        leftover = list((tmp_path / "spill").glob("level-*.bin"))
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
        assert state.step == 2  # level 3 runs next
        assert not state.complete
        assert state.snapshot["level"], "a mid-run checkpoint carries the next level"
