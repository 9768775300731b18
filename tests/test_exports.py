"""Every name a motrbench module lists in __all__ must exist: a name left
behind after its definition was deleted breaks `from module import *`.
The package exports exactly those lists, and nothing else names them."""

import importlib
import os
import pkgutil
import subprocess
import sys

import motrbench

# The modules the package re-exports, in the order their lists are joined.
EXPORTED = ("lds", "trust_region", "online", "cdg", "controllers", "generators", "bench")


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(motrbench.__path__):
        module = importlib.import_module(f"motrbench.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"motrbench.{info.name}.__all__ names undefined {missing}"


def test_the_package_exports_each_modules_list():
    modules = [importlib.import_module(f"motrbench.{name}") for name in EXPORTED]
    joined = [name for module in modules for name in module.__all__]
    assert motrbench.__all__ == joined
    assert len(set(joined)) == len(joined), "a name is public in two modules"
    for module in modules:
        for name in module.__all__:
            assert getattr(motrbench, name) is getattr(module, name), name


def test_importing_the_package_leaves_the_command_line_out():
    # cli imports argparse; the package import, and so every set-up, does not.
    code = "import sys, motrbench; print('motrbench.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(motrbench.__path__[0]))
    child = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True)
    assert child.stdout == "False\n"
