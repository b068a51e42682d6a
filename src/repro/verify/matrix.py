"""The configuration matrix of the differential verifier.

PRs multiplied the ways a discovery run can execute — partition engine
(vectorized/pure) × store (memory/disk) × checkpoint/resume × tracing
× pruning-rule ablations.
Every one of those combinations is *supposed* to produce the
byte-identical minimal cover; this module enumerates the combinations
as :class:`ConfigCell` values so :mod:`repro.verify.runner` can diff
them cell-by-cell against a reference run.

Two matrices are provided:

* :func:`smoke_matrix` — one dimension at a time (engine, store,
  checkpoint, tracing, pruning ablations).  Fast enough to run
  hundreds of seeds in CI.
* :func:`full_matrix` — everything in smoke plus the cross-product
  cells (disk×checkpoint, pure×checkpoint).

Each cell declares *which result dimensions* it is expected to
reproduce (``compare``): the pruning ablations change the search's
counters (that is their point) but never the cover, and disabling key
pruning stops key discovery entirely, so those cells compare fewer
dimensions.  Everything a cell does declare must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.tane import TaneConfig
from repro.exceptions import ConfigurationError
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer

__all__ = [
    "COMPARE_ALL",
    "ConfigCell",
    "REFERENCE_CELL",
    "smoke_matrix",
    "full_matrix",
    "build_matrix",
]

COMPARE_ALL = frozenset({"fds", "errors", "keys", "counters"})
"""Every diffable result dimension (see :meth:`RunSignature.diff`)."""

_NO_COUNTERS = frozenset({"fds", "errors", "keys"})
_COVER_ONLY = frozenset({"fds", "errors"})


@dataclass(frozen=True)
class ConfigCell:
    """One cell of the configuration matrix.

    A cell is a named recipe for building a :class:`TaneConfig` plus
    the set of result dimensions it must reproduce from the reference
    run.  Cells are declarative and picklable, so failure cases can be
    serialized (``cell.describe()``) and replayed.
    """

    name: str
    """Stable identifier, e.g. ``"disk-checkpoint"``."""

    compare: frozenset = COMPARE_ALL
    """Result dimensions diffed against the reference cell."""

    engine: str = "vectorized"
    """Partition engine (``TaneConfig.engine``)."""

    store: str = "memory"
    """Partition store (``TaneConfig.store``)."""

    store_options: tuple = ()
    """Store options, e.g. a tiny resident budget to force spills."""

    checkpoint: bool = False
    """Run interrupted-at-a-level-boundary, then resumed (see runner)."""

    traced: bool = False
    """Attach a Tracer with an in-memory sink to the run."""

    use_rule8: bool = True
    """COMPUTE-DEPENDENCIES line 8 (rhs+ refinement) toggle."""

    use_key_pruning: bool = True
    """Key-pruning rule toggle."""

    use_g3_bounds: bool = True
    """O(1) g3 bound short-circuit toggle."""

    def build_config(
        self,
        *,
        epsilon: float = 0.0,
        measure: str = "g3",
        max_lhs_size: int | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        sinks: tuple = (),
    ) -> TaneConfig:
        """Materialize the cell as a :class:`TaneConfig` for a scenario.

        The scenario (epsilon/measure/lhs limit) is shared across the
        whole matrix; the cell contributes the execution shape.
        ``sinks`` (the runner's interrupt) join the run's span stream.
        A tracer is constructed fresh per call — cells are immutable
        and reusable, tracers are not.
        """
        if self.checkpoint and checkpoint_dir is None:
            raise ConfigurationError(f"cell {self.name!r} needs a checkpoint_dir")
        sinks = [*sinks, InMemorySink()] if self.traced else list(sinks)
        return TaneConfig(
            epsilon=epsilon,
            measure=measure,
            max_lhs_size=max_lhs_size,
            engine=self.engine,
            store=self.store,
            store_options=self.store_options,
            use_rule8=self.use_rule8,
            use_key_pruning=self.use_key_pruning,
            use_g3_bounds=self.use_g3_bounds,
            tracer=Tracer(sinks=sinks) if sinks else None,
            checkpoint_dir=checkpoint_dir if self.checkpoint else None,
            resume=resume if self.checkpoint else False,
        )

    def describe(self) -> dict:
        """JSON-serializable description, for failure-case files."""
        return {
            "name": self.name,
            "compare": sorted(self.compare),
            "engine": self.engine,
            "store": self.store,
            "store_options": [list(pair) for pair in self.store_options],
            "checkpoint": self.checkpoint,
            "traced": self.traced,
            "use_rule8": self.use_rule8,
            "use_key_pruning": self.use_key_pruning,
            "use_g3_bounds": self.use_g3_bounds,
        }

    @classmethod
    def from_description(cls, data: dict) -> "ConfigCell":
        """Rebuild a cell from :meth:`describe` output (failure replay).

        Cases saved while the program had a process executor name one
        per cell; a cell that ran on anything but the in-process
        executor cannot be replayed as recorded, so it is refused.
        """
        executor = data.get("executor", "serial")
        if executor != "serial":
            raise ConfigurationError(
                f"cell {data.get('name')!r} ran on the {executor!r} executor, "
                "which no longer exists; only in-process cells can be replayed"
            )
        return cls(
            name=data["name"],
            compare=frozenset(data["compare"]),
            engine=data["engine"],
            store=data["store"],
            store_options=tuple(
                (key, value) for key, value in data.get("store_options", [])
            ),
            checkpoint=data["checkpoint"],
            traced=data["traced"],
            use_rule8=data["use_rule8"],
            use_key_pruning=data["use_key_pruning"],
            use_g3_bounds=data["use_g3_bounds"],
        )


REFERENCE_CELL = ConfigCell(name="reference")
"""The baseline every other cell is diffed against: vectorized engine,
memory store, no checkpoint, no tracing."""

# Force the disk store to actually exercise its spill/load machinery on
# the small fuzz relations: a one-byte resident budget with pinning
# disabled spills every partition.
_SPILLY = (("resident_budget_bytes", 1), ("min_spill_bytes", 0))


def smoke_matrix() -> list[ConfigCell]:
    """The smoke matrix: engine × store × checkpoint × tracing × ablations.

    The first cell is always the reference.  Runs in milliseconds per
    seed on fuzz-sized relations, so CI can afford many seeds.
    """
    return [
        REFERENCE_CELL,
        ConfigCell(name="pure-engine", engine="pure"),
        ConfigCell(name="disk-store", store="disk", store_options=_SPILLY),
        ConfigCell(name="checkpoint-resume", checkpoint=True),
        ConfigCell(name="traced", traced=True),
        ConfigCell(name="no-rule8", use_rule8=False, compare=_NO_COUNTERS),
        ConfigCell(name="no-key-pruning", use_key_pruning=False, compare=_COVER_ONLY),
        ConfigCell(name="no-g3-bounds", use_g3_bounds=False, compare=_NO_COUNTERS),
    ]


def full_matrix() -> list[ConfigCell]:
    """Smoke matrix plus the cross-product cells."""
    return smoke_matrix() + [
        ConfigCell(name="disk-checkpoint", store="disk", store_options=_SPILLY,
                   checkpoint=True),
        ConfigCell(name="pure-checkpoint", engine="pure", checkpoint=True),
    ]


def build_matrix(kind: str) -> list[ConfigCell]:
    """Resolve a matrix name (``"smoke"`` or ``"full"``) to its cells."""
    if kind == "smoke":
        return smoke_matrix()
    if kind == "full":
        return full_matrix()
    raise ConfigurationError(f"unknown matrix {kind!r}; use 'smoke' or 'full'")
