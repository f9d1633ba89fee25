"""Return panels: log-returns, standardization, coarsening."""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

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

# Rows per block of a pass over a panel: 16 rows of T = 40600 are about 5 MB,
# so each block's temporaries stay in cache.
_ROW_BLOCK = 16

# A row whose values are above about 1e154 has squares that overflow float64.
_TOO_LARGE = "row {!r} has values too large to standardize: their squares overflow float64"


# Threads that take row blocks (and the tiles of spectrum's Gram product)
# beside the calling thread, one per other core this process may run on.  The
# pool starts its threads on first use, so a one-core process never starts one.
try:
    _HELPERS = len(os.sched_getaffinity(0)) - 1
except AttributeError:  # no sched_getaffinity on this platform
    _HELPERS = (os.cpu_count() or 1) - 1
_POOL = ThreadPoolExecutor(max(_HELPERS, 1), thread_name_prefix="xcorr-rows")


def _record(obj):
    """A result record as JSON values, one key per dataclass field: an ndarray
    becomes its ``tolist()`` and a list or tuple a list, element by element."""

    def value(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, (list, tuple)):
            return [value(e) for e in v]
        return v

    return {f.name: value(getattr(obj, f.name)) for f in fields(obj)}


def _frozen(arr):
    """Mark an array the library has just computed read-only, so a record takes
    it without a copy; the caller must keep no writable alias of it."""
    arr.setflags(write=False)
    return arr


def _kept_rows(owner, keep):
    """The rows of ``owner[:len(keep)]`` where `keep` holds, moved down in place and
    frozen: `owner` if all stay, else its leading rows.  `owner` owns its data, unshared."""
    rows = np.flatnonzero(keep)
    for dst, src in enumerate(rows):
        if dst < src:
            owner[dst] = owner[src]
    return _frozen(owner) if len(rows) == len(owner) else _frozen(owner)[:len(rows)]


def _is_frozen(arr, dtype=float):
    """A read-only `dtype` ndarray that owns its data, or a read-only view of one."""
    if type(arr) is not np.ndarray or arr.dtype != dtype or arr.flags.writeable:
        return False
    return arr.base is None or _is_frozen(arr.base, dtype)


def _as_array(values, name, dtype=float):
    """The values as a read-only, C-ordered `dtype` array: the one way a record
    takes an array.

    A frozen C-contiguous array (see :func:`_is_frozen`; :func:`_frozen`
    leaves one) is taken as it is: nothing else can write to it.  Anything
    else is copied once into C order, and the copy is frozen.  Text is no
    number here: numpy's cast would read ``'1_0'`` as 10.
    """
    if _is_frozen(values, dtype) and values.flags.c_contiguous:
        return values
    try:
        arr = values if isinstance(values, np.ndarray) else np.array(values)
        if arr.dtype.kind in "SU" or (
            arr.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat)
        ):
            raise TypeError("text entries are not numbers")
        # The caller's array is copied; one made from a list just now is not.
        convert = np.array if arr is values else np.asarray
        return _frozen(convert(arr, dtype=dtype, order="C"))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None


def _as_matrix(values, name):
    """:func:`_as_array` of a two-dimensional field."""
    arr = _as_array(values, name)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return arr


def _each_block(fn, x):
    """``[fn(b) for b in blocks]`` over the slices of `_ROW_BLOCK` rows that
    together cover `x`, one cache-sized block each, shared out among threads
    by :func:`_each`.  A panel's array is C-ordered (see :func:`_as_matrix`),
    so a block is contiguous and each row's reductions see the same values in
    the same order as over the whole array: the bits agree.
    """
    return _each(fn, [slice(lo, lo + _ROW_BLOCK) for lo in range(0, x.shape[0], _ROW_BLOCK)])


def _each(fn, items):
    """``[fn(item) for item in items]``, the items shared out among threads.

    The calling thread and up to ``_HELPERS`` pool threads each claim the next
    item until none is left, so a descheduled thread holds up only its own
    item.  Each helper runs in its own copy of the caller's context, so the
    caller's ``np.errstate`` holds on every thread.  `fn` must touch only its
    own part of any shared output and call no traced function: only numpy,
    private helpers and the MFDFA per-scale kernels ``segment_variances`` and
    ``fluctuation``, which a tracer leaves unwrapped.  Every item runs; then
    the exception of the first failing item in list order is raised, which is
    the one the serial loop (one item, or no helper thread) stops at.
    """
    helpers = min(_HELPERS, len(items) - 1)
    if helpers < 1:
        return [fn(item) for item in items]
    results, errors = [None] * len(items), [None] * len(items)
    claim, lock = iter(range(len(items))), threading.Lock()

    def work():
        while True:
            with lock:
                k = next(claim, None)
            if k is None:
                return
            try:
                results[k] = fn(items[k])
            except Exception as exc:  # raised in list order below
                errors[k] = exc

    # A context can be entered by one thread at a time: one copy per helper.
    futures = [_POOL.submit(contextvars.copy_context().run, work) for _ in range(helpers)]
    try:
        work()
    finally:
        # Every item is claimed by now; a helper that has not started (its
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


def _standardized_rows(x, names, f=None, out=None):
    """``(y - y.mean(1)) / y.std(1)`` for ``y = f(x)`` (or `x`), bit for bit, in
    one row-block pass, and a mask of the zero-variance rows, which are left
    centred rather than divided.  A row whose variance overflows is a
    ValueError naming it (`names` holds the row names).

    The result goes to `out`, a new array unless given; `out` may be `x`
    itself, which is then standardized in place.
    """
    n, t = x.shape
    if out is None:
        out = np.empty((n, t))
    flat = np.empty(n, dtype=bool)

    def scale(b):
        y = x[b] if f is None else f(x[b], out=out[b])
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.subtract(y, np.add.reduce(y, axis=1, keepdims=True) / t, out=out[b])
            stds = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True) / t)
        huge = ~np.isfinite(stds[:, 0])
        if huge.any():
            raise ValueError(_TOO_LARGE.format(names[b.start + huge.argmax()]))
        flat[b] = stds[:, 0] == 0
        np.divide(d, stds, out=d, where=stds != 0)

    _each_block(scale, x)
    return out, flat


def _integer(value, name):
    """`value` as an int if it is a Python or numpy integer, else a ValueError
    naming `name`: a float would be truncated or leak a TypeError later."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name):
    """`value` as a float if it is a real number (a Python or numpy int or
    float, NaN and infinities included), else a ValueError naming `name`: a
    string or None would leak a TypeError from the first comparison."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


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
        self.timestamps = ts = _as_array(self.timestamps, "timestamps")
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
    which makes the correlation matrix exactly (1/T) M M^T. A panel always
    holds a C-ordered array and copies any other input into C order. Arrays
    are read-only; operations return new panels.
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
            # A row of finite values has a finite sum unless the sum
            # overflows, so only a block with a non-finite sum is scanned.
            with np.errstate(over="ignore", invalid="ignore"):
                sums = np.add.reduce(x[b], axis=1)
            if not np.isfinite(sums).all() and not np.isfinite(x[b]).all():
                raise ValueError("returns contain non-finite values")
            if self.standardized:
                with np.errstate(over="ignore", invalid="ignore"):
                    means[b] = sums / t
                    d = x[b] - means[b, None]
                    variances[b] = np.add.reduce(np.multiply(d, d, out=d), axis=1) / t

        _each_block(check, x)
        if self.standardized:
            bad = np.flatnonzero(
                ~np.isfinite(variances)
                | (np.abs(means) >= MEAN_TOL)
                | (np.abs(variances - 1.0) >= VAR_TOL)
            )
            if bad.size:
                k = bad[0]
                if not np.isfinite(variances[k]):
                    raise ValueError(_TOO_LARGE.format(self.assets[k]))
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
    """Log price increments ln p(t_{j+1}) - ln p(t_j), one row per asset, taken
    one row block at a time straight into the result: the bits of
    ``np.diff(np.log(prices), axis=1)`` with no whole-panel temporary."""
    x = p.prices
    out = np.empty((x.shape[0], x.shape[1] - 1))

    def diff(b):
        y = np.log(x[b])
        np.subtract(y[:, 1:], y[:, :-1], out=out[b])

    _each_block(diff, x)
    return ReturnPanel(
        assets=p.assets,
        returns=_frozen(out),
        standardized=False,
        bars_per_day=p.bars_per_day,
        dt_seconds=p.dt_seconds,
    )


def standardize(r: ReturnPanel) -> ReturnPanel:
    """Shift/scale each row to mean 0, population variance 1 (divisor T), with
    the bits of ``(x - x.mean(1)) / x.std(1)``.

    The one place that decides whether a panel needs it: a panel flagged
    ``standardized`` was checked to ``MEAN_TOL``/``VAR_TOL`` when it was built,
    so it is returned as it is.
    """
    return r if r.standardized else _standardized(r, r.returns)


def _standardized(r: ReturnPanel, x) -> ReturnPanel:
    """`r` holding `x`, rows of `r`'s assets (its returns or a slice of their
    columns), standardized into a new array; a zero-variance row is a
    ValueError naming its asset."""
    out, flat = _standardized_rows(x, r.assets)
    if flat.any():
        raise ValueError(f"cannot standardize zero-variance series {r.assets[flat.argmax()]!r}")
    return replace(r, returns=_frozen(out), standardized=True)


def coarsen(r: ReturnPanel, factor: int) -> ReturnPanel:
    """Aggregate to a coarser horizon by summing blocks of `factor` log-returns.

    `factor` must divide bars_per_day so day boundaries survive. A trailing
    partial block is dropped. The result is not standardized.
    """
    factor = _integer(factor, "factor")
    if factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor}")
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
