"""The discovery benchmark's layer table names entry points that exist.

``perfbench/layers.py`` wraps the program's functions by name for a
traced run, and refuses a target the program renamed or deleted.  That
refusal otherwise shows only when the benchmark runs, so this checks
every ``LAYER_TARGETS`` entry here.  It reads the table and changes
nothing.
"""

import pytest

from perfbench import layers


@pytest.mark.parametrize(
    "layer, module, path",
    layers.LAYER_TARGETS,
    ids=[f"{module}.{path}" for _layer, module, path in layers.LAYER_TARGETS],
)
def test_every_layer_target_resolves(layer, module, path):
    owner, attribute = layers.resolve(module, path)
    assert callable(getattr(owner, attribute))
    assert layer in layers.LAYERS
