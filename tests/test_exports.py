"""The public names each module exports."""

import importlib
import pkgutil

import pytest

import polyflow


def test_every_exported_name_resolves():
    # a name deleted from a module cannot stay in its __all__, where
    # ``from polyflow.<module> import *`` would fail on it
    modules = [importlib.import_module(f"polyflow.{info.name}")
               for info in pkgutil.iter_modules(polyflow.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 8
    missing = [f"{m.__name__}.{name}" for m in exporting for name in m.__all__
               if not hasattr(m, name)]
    assert missing == []


@pytest.mark.parametrize("module,name", [
    ("polyflow", "MetricMode"), ("polyflow", "MetricField"),
    ("polyflow", "prescribed_metric"), ("polyflow.domain_grid", "MetricMode"),
    ("polyflow.domain_grid", "MetricField"), ("polyflow.domain_grid", "prescribed_metric"),
    ("polyflow.errors", "MetricModeError"), ("polyflow.verify", "_require_prescribed"),
])
def test_removed_metric_names_are_gone(module, name):
    # a metric is a plain array: no wrapper, mode or mode guard remains
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module), name)
