"""Every name a module exports in __all__ exists, so `import *` cannot fail."""
import importlib
import pkgutil

import pytest

import eyerig

MODULES = sorted(m.name for m in pkgutil.iter_modules(eyerig.__path__, "eyerig."))


def test_modules_found():
    assert "eyerig.channels" in MODULES and "eyerig.planner" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
