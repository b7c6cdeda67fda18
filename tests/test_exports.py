"""Every name a bslab module lists in __all__ exists, and a star import of
each module succeeds."""
import importlib
import pkgutil

import pytest

import bslab

MODULES = ["bslab"] + [f"bslab.{m.name}" for m in pkgutil.iter_modules(bslab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)
