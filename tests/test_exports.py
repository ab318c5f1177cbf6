"""Every name a module exports resolves, so a deletion cannot leave a stale
entry in ``__all__``."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["walk", "lindblad", "circuits", "linalg"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"oqwalk.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
