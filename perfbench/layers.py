"""Per-layer timing for the traced benchmark run.

The program itself is not instrumented: :class:`LayerTimer` wraps the
public functions through which the search calls each layer, for the
duration of a ``with timer.installed():`` block, and puts the
originals back afterwards.  A layer's *self* time is the time inside
its wrapped calls minus the time spent in wrapped calls nested in
them, so the self times of all layers plus the unwrapped remainder
(the ``scheduler`` glue) add up to the traced wall time.

Each name is patched where it is looked up.  ``repro.search.execution``
imports ``batched_products`` and ``evaluate_validity`` by name, so
those two are wrapped in that module's namespace — wrapping them in
their defining modules would record nothing.  Methods are wrapped on
their classes.  ``SerialExecution.products`` is a lazy generator the
store consumes, so the kernel calls inside it are timed, not the
generator.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["LAYER_TARGETS", "LAYERS", "LayerTimer"]

#: ``(layer, module, attribute path)`` for every wrapped entry point.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("vectorized", "repro.search.execution", "batched_products"),
    ("vectorized", "repro.partition.vectorized", "CsrPartition.product"),
    ("measures", "repro.search.execution", "evaluate_validity"),
    ("tracker", "repro.search.tracker", "CandidateTracker.compute_cplus"),
    ("tracker", "repro.search.tracker", "CandidateTracker.testable_groups"),
    ("tracker", "repro.search.tracker", "CandidateTracker.apply_outcome"),
    ("tracker", "repro.search.tracker", "CandidateTracker.prune"),
    ("lattice", "repro.search.strategy", "LevelwiseStrategy.expand"),
    ("execution", "repro.search.execution", "SerialExecution.validity_tests"),
    ("store", "repro.partition.store", "MemoryPartitionStore.get"),
    ("store", "repro.partition.store", "MemoryPartitionStore.put"),
    ("store", "repro.partition.store", "MemoryPartitionStore.discard"),
    ("partitions", "repro.search.partitions", "PartitionManager.materialize"),
    ("partitions", "repro.search.partitions", "PartitionManager.materialize_mask"),
    ("partitions", "repro.search.partitions", "PartitionManager.bootstrap"),
    ("partitions", "repro.search.partitions", "PartitionManager.reclaim"),
    ("partitions", "repro.search.partitions", "PartitionManager.reclaim_except"),
    ("dfd", "repro.search.dfd", "DfdStrategy.next_requests"),
    ("dfd", "repro.search.dfd", "DfdStrategy.observe"),
)

#: Layer names in report order (``scheduler`` is the unwrapped remainder).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_TARGETS))


def resolve(module_name: str, path: str) -> tuple[object, str]:
    """The object holding ``path``'s last component, and that name.

    Raises ``AttributeError`` when the program renamed or moved the
    target, so a stale table fails loudly instead of reading zero.
    """
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attribute not in vars(owner):
        raise AttributeError(f"{module_name}.{path} no longer exists")
    return owner, attribute


class LayerTimer:
    """Accumulates self time and call counts per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        # Elapsed time of finished nested calls, one slot per open call.
        self._nested: list[float] = []

    def _wrap(self, layer: str, function):
        nested = self._nested
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - nested.pop()
                calls[layer] += 1
                if nested:
                    nested[-1] += elapsed

        return timed

    @contextmanager
    def installed(self) -> Iterator["LayerTimer"]:
        """Wrap every target for the block; restore the originals after."""
        patched: list[tuple[object, str, object]] = []
        try:
            for layer, module_name, path in LAYER_TARGETS:
                owner, attribute = resolve(module_name, path)
                original = vars(owner)[attribute]
                setattr(owner, attribute, self._wrap(layer, original))
                patched.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(patched):
                setattr(owner, attribute, original)
