import importlib
import pkgutil

import pytest

import fraclamb

MODULES = ["fraclamb"] + [f"fraclamb.{m.name}" for m in pkgutil.iter_modules(fraclamb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})
