"""Every name that ``geonull`` and its modules export in ``__all__`` resolves.

``perfbench/tracer.py`` looks up each ``__all__`` entry of the layer modules
with ``getattr`` to wrap it, so a stale entry would stop every traced run.
"""

import importlib
import pkgutil

import pytest

import geonull

MODULES = ["geonull"] + [f"geonull.{info.name}" for info in pkgutil.iter_modules(geonull.__path__)]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_package_and_each_layer_export_names():
    assert {"geonull", "geonull.exprcalc", "geonull.numcore", "geonull.metricspace", "geonull.curvature",
            "geonull.flows", "geonull.splitting"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
