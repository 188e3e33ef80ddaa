"""The package's public surface: every exported name exists.

Tools that walk ``__all__`` (a tracer wrapping each public function, for
one) call ``getattr`` on every entry, so a name left behind after its
object was deleted breaks them outright.
"""

import importlib
import pkgutil

import pytest

import fracp

MODULES = ["fracp"] + sorted(f"fracp.{m.name}"
                             for m in pkgutil.iter_modules(fracp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ())
               if not hasattr(mod, attr)]
    assert missing == []
