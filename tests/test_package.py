"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import emilab

MODULES = ["emilab"] + [f"emilab.{m.name}" for m in pkgutil.iter_modules(emilab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
