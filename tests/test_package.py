"""The package namespace: every exported name resolves lazily to the object
its submodule defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycloeta


@pytest.mark.parametrize("name", cycloeta.__all__)
def test_exported_name_is_the_submodule_object(name):
    module = importlib.import_module(f"cycloeta.{cycloeta._MODULE_OF[name]}")
    assert getattr(cycloeta, name) is getattr(module, name)


def test_exports_cover_the_public_names():
    assert cycloeta.__all__ == sorted(cycloeta._MODULE_OF)
    assert len(cycloeta.__all__) == 29
    namespace = {}
    exec("from cycloeta import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(cycloeta.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cycloeta.no_such_name
    assert not hasattr(cycloeta, "_private")
    with pytest.raises(ImportError):
        exec("from cycloeta import no_such_name", {})


def test_package_import_loads_no_submodule():
    probe = (
        "import sys, cycloeta; "
        "print(sorted(m for m in sys.modules if m.startswith('cycloeta.'))); "
        "cycloeta.QuadInt; "
        "print(sorted(m for m in sys.modules if m.startswith('cycloeta.')))"
    )
    # the child imports the cycloeta under test, whatever PYTHONPATH holds
    root = str(Path(cycloeta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "['cycloeta.arith', 'cycloeta.quadfield']"]
