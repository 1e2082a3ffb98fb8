"""Every name a module exports exists: a stale ``__all__`` entry breaks
``from hqreg.<module> import *``."""

import importlib
import pkgutil

import pytest

import hqreg

MODULES = sorted(info.name for info in pkgutil.iter_modules(hqreg.__path__))


def test_every_module_is_listed():
    assert {"cli", "loss_density", "randist", "sampler", "simbench", "specfun"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hqreg.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from hqreg.{name} import *", namespace)
    assert set(exported) <= namespace.keys()
