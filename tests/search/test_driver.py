"""SearchDriver in isolation: assembled from bare components with no
composition root, no tracer, no checkpoint manager — proving the
search core runs (and is testable) without any plugin layer."""

import pytest

from repro.core.tane import TaneConfig, discover_fds
from repro.model.relation import Relation
from repro.partition.store import MemoryPartitionStore
from repro.partition.vectorized import CsrPartition, PartitionWorkspace
from repro.search import (
    CandidateTracker,
    LevelwiseStrategy,
    PartitionManager,
    SearchDriver,
    SearchHooks,
    SerialExecution,
)
from repro.search.hooks import NULL_SPAN, ResumePoint, resolve_span_provider
from repro.search.measures import ValidityCriteria


@pytest.fixture
def relation(figure1_relation):
    return figure1_relation


def _driver(relation, *, hooks=(), strategy=None, metrics=None):
    executor = SerialExecution()
    workspace = PartitionWorkspace(relation.num_rows)
    full_mask = relation.schema.full_mask()
    return SearchDriver(
        relation,
        tracker=CandidateTracker(full_mask),
        strategy=strategy or LevelwiseStrategy(),
        partitions=PartitionManager(
            relation,
            CsrPartition,
            MemoryPartitionStore(),
            workspace,
            executor,
        ),
        executor=executor,
        criteria=ValidityCriteria(
            epsilon=0.0,
            epsilon_count=0,
            measure="g3",
            use_g3_bounds=True,
            num_rows=relation.num_rows,
        ),
        workspace=workspace,
        metrics=metrics,
        hooks=hooks,
    )


class TestBareDriver:
    def test_matches_composition_root(self, relation):
        driver = _driver(relation)
        dependencies = driver.run()
        reference = discover_fds(relation)
        assert dependencies == reference.dependencies
        assert driver.tracker.keys == reference.keys

    def test_default_metrics_are_simple(self, relation):
        driver = _driver(relation)
        driver.run()
        assert driver.metrics.counter_value("tane.validity_tests") > 0
        assert driver.metrics.series_values("tane.level_sizes")

    def test_progress_called_per_level(self, relation):
        # Progress is the span seam's ``level`` span, opened with the
        # level number and its exact candidate count.
        levels = []
        driver = _driver(relation, hooks=[LevelHooks(levels)])
        driver.run()
        assert [a["level"] for a in levels] == list(range(1, len(levels) + 1))
        assert levels[0]["s_l"] == relation.num_attributes


class LevelHooks(SearchHooks):
    """Span provider recording the attributes each ``level`` span opens
    with; raises at ``raise_at`` when set."""

    def __init__(self, levels, raise_at=None):
        self.levels = levels
        self.raise_at = raise_at

    def span(self, name, **attributes):
        if name == "level":
            if attributes["level"] == self.raise_at:
                raise RuntimeError("boom")
            self.levels.append(attributes)
        return NULL_SPAN


class RecordingHooks(SearchHooks):
    """Hook that records every driver callback."""

    def __init__(self):
        self.boundaries = []
        self.failures = 0

    def on_boundary(self, driver, boundary):
        self.boundaries.append(boundary)

    def on_failure(self, driver):
        self.failures += 1


class ResumingHooks(SearchHooks):
    def __init__(self, point):
        self.point = point

    def resume_state(self, driver):
        return self.point


class TestHookProtocol:
    def test_boundaries_fire_per_level_and_completion(self, relation):
        hooks = RecordingHooks()
        _driver(relation, hooks=[hooks]).run()
        assert hooks.boundaries, "no boundaries observed"
        assert [b.complete for b in hooks.boundaries].count(True) == 1
        assert hooks.boundaries[-1].complete
        assert hooks.failures == 0

    def test_on_failure_fires_while_unwinding(self, relation):
        hooks = RecordingHooks()
        driver = _driver(relation, hooks=[hooks, LevelHooks([], raise_at=2)])
        with pytest.raises(RuntimeError):
            driver.run()
        assert hooks.failures == 1

    def test_first_resume_point_wins(self, relation):
        # Resume at "the search is already finished": no level runs.
        done = ResumePoint(
            level_number=99, level=[], previous_level_masks=[], cplus_prev={}
        )
        hooks = RecordingHooks()
        driver = _driver(relation, hooks=[ResumingHooks(done), hooks])
        dependencies = driver.run()
        assert len(dependencies) == 0
        assert driver.metrics.counter_value("tane.validity_tests") == 0
        # The completion boundary still fires for durable-state hooks.
        assert hooks.boundaries[-1].complete


class SpanningHooks(SearchHooks):
    def __init__(self, log):
        self.log = log

    def span(self, name, **attributes):
        self.log.append(name)
        return NULL_SPAN


class TestSpanResolution:
    def test_no_providers_is_null(self):
        assert resolve_span_provider([SearchHooks()])("level") is NULL_SPAN

    def test_single_provider_is_direct(self):
        log = []
        hook = SpanningHooks(log)
        provider = resolve_span_provider([hook])
        # The provider is the hook's bound span method itself, with no
        # fan-out wrapper in between.
        assert provider.__func__ is SpanningHooks.span
        assert provider.__self__ is hook

    def test_second_provider_is_refused(self, relation):
        with pytest.raises(ValueError, match="at most one"):
            _driver(relation, hooks=[SpanningHooks([]), SpanningHooks([])])
