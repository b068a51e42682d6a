"""Deterministic cleanup of the product stream on the error path.

In the per-mask storage form (relations taller than the dense kernel's
limit, DFD walks) the partition manager streams an executor's products
straight into the store.  When consuming that stream raises, the
manager's ``finally`` must close the generator at once rather than
leave it to finalize at garbage collection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tane import TaneConfig, discover
from repro.model.relation import Relation
from repro.partition.vectorized import _DENSE_MAX_ROWS
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
    # Tiled past the dense limit, so the levelwise walk streams per-mask
    # partitions instead of storing one block per level.
    copies = _DENSE_MAX_ROWS // structured_relation.num_rows + 1
    tall = Relation.from_codes(
        [
            np.tile(structured_relation.column_codes(i), copies)
            for i in range(structured_relation.num_attributes)
        ],
        list(structured_relation.schema.attribute_names),
    )
    executor = RecordingExecution()
    with faults.inject("tane.products.consume", RuntimeError("injected put failure")):
        with pytest.raises(RuntimeError, match="injected put failure"):
            discover(tall, TaneConfig(executor=executor))
    assert executor.streams, "no products stream was opened before the fault"
    assert all(stream.gi_frame is None for stream in executor.streams)
