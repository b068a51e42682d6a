"""Per-level progress as a sink on the run's span stream.

A progress consumer is a sink on ``TaneConfig.tracer``: it is called
back with each ``level`` open record (level number and exact candidate
count ``s_l``) and each close record (``dependencies_total``).
"""

import pytest

from repro.core.tane import TaneConfig, discover
from repro.obs import QueueSink, Tracer


class Levels:
    """Sink keeping the attributes of every ``level`` record."""

    def __init__(self, raise_at: int | None = None) -> None:
        self.opened: list[dict] = []
        self.closed: list[dict] = []
        self.starts: list[float] = []
        self.raise_at = raise_at

    def record(self, span) -> None:
        if span.name != "level":
            return
        if span.end is None:
            if span.attributes["level"] == self.raise_at:
                raise RuntimeError("stop here")
            self.opened.append(dict(span.attributes))
            self.starts.append(span.start)
        else:
            self.closed.append(dict(span.attributes))

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def observed(relation, sink, **config):
    return discover(relation, TaneConfig(tracer=Tracer(sinks=[sink]), **config))


class TestProgressCallback:
    def test_called_once_per_level(self, figure1_relation):
        levels = Levels()
        result = observed(figure1_relation, levels)
        assert len(levels.opened) == len(result.statistics.level_sizes)
        assert [a["level"] for a in levels.opened] == list(
            range(1, len(levels.opened) + 1)
        )
        assert [a["s_l"] for a in levels.opened] == result.statistics.level_sizes
        assert len(levels.closed) == len(levels.opened)

    def test_dependency_counts_monotone(self, figure1_relation):
        levels = Levels()
        result = observed(figure1_relation, levels)
        counts = [a["dependencies_total"] for a in levels.closed]
        assert counts == sorted(counts)
        assert counts[-1] <= len(result.dependencies)

    def test_elapsed_nondecreasing(self, figure1_relation):
        levels = Levels()
        observed(figure1_relation, levels)
        assert levels.starts == sorted(levels.starts)

    def test_no_callback_by_default(self, figure1_relation):
        result = discover(figure1_relation, TaneConfig())
        assert len(result.dependencies) == 6  # nothing broke
        assert result.trace is None

    def test_callback_exception_aborts(self, figure1_relation):
        with pytest.raises(RuntimeError, match="stop here"):
            observed(figure1_relation, Levels(raise_at=2))

    def test_result_unchanged_by_callback(self, figure1_relation):
        plain = discover(figure1_relation, TaneConfig())
        traced = observed(figure1_relation, QueueSink())
        assert plain.dependencies == traced.dependencies
        assert plain.keys == traced.keys
        assert plain.statistics.validity_tests == traced.statistics.validity_tests

    def test_works_in_approximate_mode(self, figure1_relation):
        levels = Levels()
        observed(figure1_relation, levels, epsilon=0.25)
        assert levels.opened
