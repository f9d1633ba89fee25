"""Return panels: log-returns, standardization, coarsening."""

from __future__ import annotations

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


def _frozen(arr):
    """Mark an array the library has just computed read-only, so a panel takes it
    without a copy; the caller must keep no writable alias of it."""
    arr.setflags(write=False)
    return arr


def _as_matrix(values, name):
    """The values as a read-only float array.

    A read-only float64 ndarray that owns its data (as :func:`_frozen` leaves
    one) is taken as it is: nothing else can write to it.  Anything else is
    copied, keeping its memory layout, and the copy is frozen.
    """
    if (type(values) is np.ndarray and values.dtype == np.float64
            and not values.flags.writeable and values.base is None):
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
        if int(self.bars_per_day) != self.bars_per_day or self.bars_per_day < 1:
            raise ValueError(f"bars_per_day must be a positive integer, got {self.bars_per_day}")
        self.bars_per_day = int(self.bars_per_day)
        bad = np.argwhere(~(self.prices > 0))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"non-positive price for asset {self.assets[i]!r} at bar {j}: {self.prices[i, j]}"
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
        if int(self.bars_per_day) != self.bars_per_day or self.bars_per_day < 1:
            raise ValueError(f"bars_per_day must be a positive integer, got {self.bars_per_day}")
        self.bars_per_day = int(self.bars_per_day)
        if not self.dt_seconds > 0:
            raise ValueError(f"dt_seconds must be positive, got {self.dt_seconds}")
        self.dt_seconds = float(self.dt_seconds)
        if not np.isfinite(self.returns).all():
            raise ValueError("returns contain non-finite values")
        if self.standardized:
            means = self.returns.mean(axis=1)
            variances = self.returns.var(axis=1)
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
    """Shift/scale each row to mean 0, population variance 1 (divisor T).

    The rows are centred once and scaled in place; the operations are those
    of ``(x - x.mean(1)) / x.std(1)`` in the same order, so the bits agree.
    """
    d = r.returns - r.returns.mean(axis=1, keepdims=True)
    stds = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True) / r.t_length)
    flat = np.flatnonzero(stds[:, 0] == 0)
    if flat.size:
        raise ValueError(f"cannot standardize zero-variance series {r.assets[flat[0]]!r}")
    d /= stds
    return replace(r, returns=_frozen(d), standardized=True)


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
