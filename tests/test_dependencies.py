"""Every third-party module the package imports is a declared dependency, so
an install from ``pyproject.toml`` alone can import every module."""

import ast
import os
import re
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SOURCE = os.path.join(ROOT, "src", "xcorr")


def _imported_top_levels():
    """The top-level module names of every absolute import in the package."""
    names = set()
    for name in sorted(os.listdir(SOURCE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SOURCE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_the_scan_sees_the_imports():
    assert {"numpy", "orjson", "os", "__future__"} <= _imported_top_levels()


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in project["dependencies"]}
    third_party = {n for n in _imported_top_levels()
                   if n not in sys.stdlib_module_names and n != "xcorr"}
    assert third_party - declared == set()
