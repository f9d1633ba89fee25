import os
import tracemalloc
import warnings

import numpy as np
import pytest

import xcorr.panel
from xcorr.panel import ReturnPanel, standardize

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# Hand-written 3 x 16 return panel used wherever a small deterministic
# correlated fixture is needed.  Rows are loosely related on purpose.
RAW_3X16 = np.array(
    [
        [0.7, -1.1, 0.4, 2.0, -0.3, 0.9, -1.6, 0.2, 1.1, -0.8, 0.5, -0.2, 1.4, -1.9, 0.6, 0.3],
        [0.5, -0.9, 0.8, 1.6, 0.1, 0.7, -1.2, -0.4, 0.9, -1.1, 0.2, 0.4, 1.0, -1.5, 0.8, -0.1],
        [-0.2, 0.6, -0.5, -1.2, 0.9, -0.4, 1.1, 0.3, -0.7, 1.0, -0.1, 0.6, -0.9, 1.3, -0.6, 0.2],
    ]
)


@pytest.fixture(params=[0, 1, 3], ids=lambda h: f"helpers{h}")
def helpers(request, monkeypatch):
    """The row-block passes (and every other `panel._each` caller) with 0
    (serial), 1 or 3 helper threads."""
    monkeypatch.setattr(xcorr.panel, "_HELPERS", request.param)
    return request.param


@pytest.fixture
def peak():
    """``peak(fn, unit)``: the most bytes traced at once while ``fn()`` runs,
    over `unit` bytes (one panel's, say); UserWarnings are ignored.  Forked
    children allocate outside the trace."""
    def measure(fn, unit):
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                fn()
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()
    return measure


@pytest.fixture
def prices_small_path():
    return os.path.join(FIXTURES, "prices_small.csv")


@pytest.fixture
def panel_3x16():
    raw = ReturnPanel(
        assets=["AAA", "BBB", "CCC"],
        returns=RAW_3X16.copy(),
        standardized=False,
        bars_per_day=4,
        dt_seconds=300.0,
    )
    return standardize(raw)


@pytest.fixture
def panel_4x64():
    """Four correlated series, long enough for a stable 4x4 eigenproblem."""
    rng = np.random.Generator(np.random.Philox(key=np.array([42, 0], dtype=np.uint64)))
    common = rng.standard_normal(64)
    rows = np.vstack([
        common + 0.8 * rng.standard_normal(64),
        common + 0.9 * rng.standard_normal(64),
        -0.5 * common + rng.standard_normal(64),
        rng.standard_normal(64),
    ])
    raw = ReturnPanel(
        assets=["A", "B", "C", "D"],
        returns=rows,
        standardized=False,
        bars_per_day=8,
        dt_seconds=60.0,
    )
    return standardize(raw)


def make_standard_row(values):
    """Standardize one row exactly like the library does (population std)."""
    v = np.asarray(values, dtype=float)
    return (v - v.mean()) / v.std()
