"""Executor selection: the search runs on one in-process executor.

``TaneConfig.executor`` takes None (the default) or an injected
:class:`~repro.search.execution.SerialExecution`; anything else, such as
the name of an executor that does not exist, is refused at construction.
"""

import pytest

from repro.core.tane import TaneConfig, discover
from repro.exceptions import ConfigurationError
from repro.search.execution import SerialExecution


class TestExecutorSelection:
    def test_bad_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            TaneConfig(executor="thread")

    def test_injected_executor_matches_default(self, figure1_relation):
        default = discover(figure1_relation, TaneConfig())
        injected = discover(
            figure1_relation, TaneConfig(executor=SerialExecution())
        )
        assert injected.dependencies == default.dependencies
        assert injected.keys == default.keys
