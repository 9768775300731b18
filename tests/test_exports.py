"""Every name a motrbench module lists in __all__ must exist: a name left
behind after its definition was deleted breaks `from module import *`."""

import importlib
import pkgutil

import motrbench


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(motrbench.__path__):
        module = importlib.import_module(f"motrbench.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"motrbench.{info.name}.__all__ names undefined {missing}"
