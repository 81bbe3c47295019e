"""The public names: everything a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import blockmix

MODULES = sorted(m.name for m in pkgutil.iter_modules(blockmix.__path__, "blockmix."))


@pytest.mark.parametrize("name", ["blockmix", *MODULES])
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

