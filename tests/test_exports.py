"""Every exported name resolves.

Tooling walks ``__all__`` with ``getattr`` (for example to wrap each public
function), so a stale entry left behind by a deletion must fail here first.
"""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import xcorr

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(xcorr.__path__))


def test_submodules_are_found():
    assert {"cli", "modes", "panel", "spectrum", "surrogate"} <= set(SUBMODULES)


@pytest.mark.parametrize("module", ["xcorr"] + [f"xcorr.{name}" for name in SUBMODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert names, f"{module} declares no __all__"
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []
    assert len(set(names)) == len(names)


def test_untraced_helpers_stay_public():
    # The traced benchmark wraps every public xcorr.mfdfa function except the
    # per-scale helpers named in UNTRACED; a renamed helper would silently
    # start being wrapped, and its spans would mostly time the tracer.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    mfdfa = importlib.import_module("xcorr.mfdfa")
    assert spans.UNTRACED <= set(mfdfa.__all__)
