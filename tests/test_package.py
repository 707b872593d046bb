from importlib import import_module

import maxnit


def test_submodule_exports_exist():
    missing = {
        name: [n for n in module.__all__ if not hasattr(module, n)]
        for name in maxnit._SUBMODULES
        for module in [import_module(f"maxnit.{name}")]
    }
    assert missing == {name: [] for name in maxnit._SUBMODULES}
