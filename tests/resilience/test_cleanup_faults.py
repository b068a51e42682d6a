"""Deterministic cleanup of the product stream on the error path.

The partition manager streams an executor's products straight into the
store.  When consuming that stream raises, the manager's ``finally``
must close the generator at once rather than leave it to finalize at
garbage collection.
"""

from __future__ import annotations

import pytest

from repro.core.tane import TaneConfig, discover
from repro.search.execution import SerialExecution
from repro.testing import faults


class RecordingExecution(SerialExecution):
    """The in-process executor, keeping every products stream it opens."""

    def __init__(self) -> None:
        self.streams = []

    def products(self, *args):
        stream = super().products(*args)
        self.streams.append(stream)
        return stream


def test_driver_closes_stream_when_consumption_raises(structured_relation):
    # A failure while the driver consumes products (the store's put
    # path) unwinds `_generate_next_level` with the stream partially
    # consumed; the driver's finally must close it.
    executor = RecordingExecution()
    with faults.inject("tane.products.consume", RuntimeError("injected put failure")):
        with pytest.raises(RuntimeError, match="injected put failure"):
            discover(structured_relation, TaneConfig(executor=executor))
    assert executor.streams, "no products stream was opened before the fault"
    assert all(stream.gi_frame is None for stream in executor.streams)
