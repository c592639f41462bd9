"""The public names each module exports."""

import importlib
import pkgutil

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
