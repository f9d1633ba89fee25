"""Return panels: log-returns, standardization, coarsening."""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "PricePanel",
    "ReturnPanel",
    "log_returns",
    "standardize",
    "coarsen",
]

MEAN_TOL = 1e-10
VAR_TOL = 1e-8

# Rows per block of a pass over a C-ordered panel: 16 rows of T = 40600 are
# about 5 MB, so each block's temporaries stay in cache.
_ROW_BLOCK = 16


# Threads that take row blocks beside the calling thread, one per other core
# this process may run on.  The pool starts its threads on first use, so a
# one-core process never starts one.
try:
    _HELPERS = len(os.sched_getaffinity(0)) - 1
except AttributeError:  # no sched_getaffinity on this platform
    _HELPERS = (os.cpu_count() or 1) - 1
_POOL = ThreadPoolExecutor(max(_HELPERS, 1), thread_name_prefix="xcorr-rows")


def _frozen(arr):
    """Mark an array the library has just computed read-only, so a panel takes it
    without a copy; the caller must keep no writable alias of it."""
    arr.setflags(write=False)
    return arr


def _is_frozen(arr):
    """A read-only float64 ndarray that owns its data, or a read-only view of one."""
    if type(arr) is not np.ndarray or arr.dtype != np.float64 or arr.flags.writeable:
        return False
    return arr.base is None or _is_frozen(arr.base)


def _as_matrix(values, name):
    """The values as a read-only float array.

    A frozen array (see :func:`_is_frozen`; :func:`_frozen` leaves one) is
    taken as it is: nothing else can write to it.  Anything else is copied,
    keeping its memory layout, and the copy is frozen.
    """
    if _is_frozen(values):
        arr = values
    else:
        try:
            arr = np.array(values, dtype=float)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{name} has ragged rows or non-numeric entries: {exc}") from None
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _row_blocks(x):
    """Slices of rows that together cover `x`, one cache-sized block each.

    A block of a C-ordered array is contiguous, and each row's reductions see
    the same values in the same order as over the whole array, so the bits
    agree.  A row block of any other layout is strided, so it is one block.
    """
    n = x.shape[0]
    step = _ROW_BLOCK if x.flags.c_contiguous else n
    for start in range(0, n, step):
        yield slice(start, start + step)


def _each_block(fn, x):
    """``[fn(b) for b in _row_blocks(x)]``, the blocks shared out among threads.

    The calling thread and up to ``_HELPERS`` pool threads each claim the next
    block until none is left, so a descheduled thread holds up only its own
    block.  `fn` must touch only its own rows of any shared output and call
    only numpy and private helpers.  Every block runs; then the exception of
    the first failing block in block order is raised, which is the one the
    serial loop (one block, or no helper thread) stops at.
    """
    blocks = list(_row_blocks(x))
    helpers = min(_HELPERS, len(blocks) - 1)
    if helpers < 1:
        return [fn(b) for b in blocks]
    results, errors = [None] * len(blocks), [None] * len(blocks)
    claim, lock = iter(range(len(blocks))), threading.Lock()

    def work():
        while True:
            with lock:
                k = next(claim, None)
            if k is None:
                return
            try:
                results[k] = fn(blocks[k])
            except Exception as exc:  # raised in block order below
                errors[k] = exc

    futures = [_POOL.submit(work) for _ in range(helpers)]
    try:
        work()
    finally:
        # Every block is claimed by now; a helper that has not started (its
        # thread busy or, after a fork, gone) has nothing left to do.
        for f in futures:
            if not f.cancel():
                f.result()
    first = next((exc for exc in errors if exc is not None), None)
    # The traceback keeps this frame and `work`'s; holding no error here lets
    # a failed pass free its arrays without waiting for the cycle collector.
    errors = None
    if first is not None:
        try:
            raise first
        finally:
            first = None
    return results


def _standardized_rows(x, f=None):
    """``(y - y.mean(1)) / y.std(1)`` for ``y = f(x)`` (or `x`), bit for bit, in
    one row-block pass, and a mask of the zero-variance rows, which are left
    centred rather than divided.  Without `f` the output keeps the layout of
    `x`, whose row sums follow it; with `f` it is C-ordered.
    """
    n, t = x.shape
    out = np.empty_like(x) if f is None else np.empty((n, t))
    flat = np.empty(n, dtype=bool)

    def scale(b):
        y = x[b] if f is None else f(x[b], out=out[b])
        d = np.subtract(y, np.add.reduce(y, axis=1, keepdims=True) / t, out=out[b])
        stds = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True) / t)
        flat[b] = stds[:, 0] == 0
        np.divide(d, stds, out=d, where=stds != 0)

    _each_block(scale, x)
    return out, flat


def _bars_per_day(value):
    """`value` as an int in [1, 2**63), or a ValueError naming bars_per_day."""
    try:
        ok = int(value) == value and 1 <= value < 2**63
    except (OverflowError, TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"bars_per_day must be a positive integer below 2**63, got {value!r}")
    return int(value)


@dataclass
class PricePanel:
    """Strictly positive prices of N assets on one uniform time grid.

    ``prices`` is N x (T+1); ``timestamps`` (seconds) has length T+1 with a
    constant step, which becomes the return horizon of :func:`log_returns`.
    """

    assets: list
    timestamps: np.ndarray
    prices: np.ndarray
    bars_per_day: int

    def __post_init__(self):
        self.assets = [str(a) for a in self.assets]
        self.prices = _as_matrix(self.prices, "prices")
        ts = np.array(self.timestamps, dtype=float)
        ts.setflags(write=False)
        self.timestamps = ts
        n, n_bars = self.prices.shape
        if len(self.assets) != n:
            raise ValueError(f"{len(self.assets)} asset labels for {n} price rows")
        if ts.ndim != 1 or ts.size != n_bars:
            raise ValueError("timestamps length must equal the number of price columns")
        if n_bars < 2:
            raise ValueError("need at least two price bars per asset")
        steps = np.diff(ts)
        if not (steps > 0).all():
            raise ValueError("timestamps must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("timestamps must form a uniform grid")
        self.bars_per_day = _bars_per_day(self.bars_per_day)
        bad = np.argwhere(~((self.prices > 0) & (self.prices < np.inf)))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"non-positive or non-finite price for asset {self.assets[i]!r} "
                f"at bar {j}: {self.prices[i, j]}"
            )

    @property
    def n_assets(self):
        return self.prices.shape[0]

    @property
    def dt_seconds(self):
        return float(self.timestamps[1] - self.timestamps[0])


@dataclass
class ReturnPanel:
    """N return series of common length T, optionally standardized per row.

    A standardized panel has row mean 0 and population variance 1 (divisor T),
    which makes the correlation matrix exactly (1/T) M M^T. Arrays are
    read-only; operations return new panels.
    """

    assets: list
    returns: np.ndarray
    standardized: bool
    bars_per_day: int
    dt_seconds: float

    def __post_init__(self):
        self.assets = [str(a) for a in self.assets]
        self.returns = _as_matrix(self.returns, "returns")
        n, t = self.returns.shape
        if len(self.assets) != n:
            raise ValueError(f"{len(self.assets)} asset labels for {n} return rows")
        if n < 1:
            raise ValueError("panel needs at least one series")
        if t < 2:
            raise ValueError(f"panel needs at least two observations per series, got T={t}")
        self.bars_per_day = _bars_per_day(self.bars_per_day)
        try:
            ok = math.isfinite(self.dt_seconds) and self.dt_seconds > 0
        except (OverflowError, TypeError):
            ok = False
        if not ok:
            raise ValueError(f"dt_seconds must be finite and positive, got {self.dt_seconds!r}")
        self.dt_seconds = float(self.dt_seconds)
        x = self.returns
        means, variances = np.empty(n), np.empty(n)

        def check(b):
            if not np.isfinite(x[b]).all():
                raise ValueError("returns contain non-finite values")
            if self.standardized:
                means[b] = np.add.reduce(x[b], axis=1) / t
                d = x[b] - means[b, None]
                variances[b] = np.add.reduce(np.multiply(d, d, out=d), axis=1) / t

        _each_block(check, x)
        if self.standardized:
            bad = np.flatnonzero(
                (np.abs(means) >= MEAN_TOL) | (np.abs(variances - 1.0) >= VAR_TOL)
            )
            if bad.size:
                k = bad[0]
                raise ValueError(
                    f"row {self.assets[k]!r} is not standardized "
                    f"(mean={means[k]:.3e}, var={variances[k]:.10f})"
                )

    @property
    def n_assets(self):
        return self.returns.shape[0]

    @property
    def t_length(self):
        return self.returns.shape[1]


def log_returns(p: PricePanel) -> ReturnPanel:
    """Log price increments ln p(t_{j+1}) - ln p(t_j), one row per asset."""
    return ReturnPanel(
        assets=p.assets,
        returns=_frozen(np.diff(np.log(p.prices), axis=1)),
        standardized=False,
        bars_per_day=p.bars_per_day,
        dt_seconds=p.dt_seconds,
    )


def standardize(r: ReturnPanel) -> ReturnPanel:
    """Shift/scale each row to mean 0, population variance 1 (divisor T), with
    the bits of ``(x - x.mean(1)) / x.std(1)``."""
    out, flat = _standardized_rows(r.returns)
    if flat.any():
        raise ValueError(f"cannot standardize zero-variance series {r.assets[flat.argmax()]!r}")
    return replace(r, returns=_frozen(out), standardized=True)


def coarsen(r: ReturnPanel, factor: int) -> ReturnPanel:
    """Aggregate to a coarser horizon by summing blocks of `factor` log-returns.

    `factor` must divide bars_per_day so day boundaries survive. A trailing
    partial block is dropped. The result is not standardized.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
    factor = int(factor)
    if r.bars_per_day % factor != 0:
        raise ValueError(
            f"factor {factor} does not divide bars_per_day {r.bars_per_day}; "
            "day boundaries would shift"
        )
    t_new = r.t_length // factor
    blocks = r.returns[:, : t_new * factor].reshape(r.n_assets, t_new, factor)
    return replace(
        r,
        returns=_frozen(blocks.sum(axis=2)),
        standardized=False,
        bars_per_day=r.bars_per_day // factor,
        dt_seconds=r.dt_seconds * factor,
    )
