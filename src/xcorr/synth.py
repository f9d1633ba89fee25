"""Seeded synthetic-market generator with controllable factor structure,
intraday activity patterns, and volatility clustering.

Serves as the verification oracle for the spectral analysis: every claim about
market modes, sector modes, and surrogate behaviour is checked against panels
whose structure is known by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .panel import (ReturnPanel, _as_array, _each_block, _frozen, _instance, _integer, _real,
                    _record, _standardized_rows)

__all__ = [
    "MarketModel",
    "generate",
    "expected_lambda1",
    "burst_profile",
    "preset",
    "PRESET_NAMES",
]

# Stream ids for the shared factor series sit far above any asset index so the
# per-asset and common streams can never collide.
_FACTOR_STREAM_BASE = 2**32

# Largest log-volatility `generate` accepts.  A volatility factor up to about
# 1e77 keeps every scaled return, its square and a row's sum of squares far
# inside the float range.
_MAX_LOG_VOL = math.log(np.finfo(float).max) / 4


@dataclass
class MarketModel:
    """Factor-model description of a synthetic market.

    Returns are built as
    g_k(j) = (beta_mkt*F(j) + beta_sec*S(j) + sigma*eps_k(j)) * u(j mod bpd) * w_k(j)
    with i.i.d. standard-normal F, S, eps, an optional intraday multiplier
    profile u of unit geometric mean, and an optional log-AR(1) stochastic
    volatility factor w_k.
    """

    n_assets: int
    t_length: int
    bars_per_day: int
    market_loading: float = 0.0
    sector_spec: list = field(default_factory=list)
    idiosyncratic_sigma: float = 1.0
    intraday_profile: np.ndarray = None
    vol_clustering: tuple = None
    seed: int = 0
    dt_seconds: float = 60.0

    def __post_init__(self):
        self.n_assets = _integer(self.n_assets, "n_assets")
        self.t_length = _integer(self.t_length, "t_length")
        self.bars_per_day = _integer(self.bars_per_day, "bars_per_day")
        if self.n_assets < 1 or self.t_length < 2:
            raise ValueError("need n_assets >= 1 and t_length >= 2")
        if self.bars_per_day < 1:
            raise ValueError("bars_per_day must be positive")
        if not 0 <= _real(self.market_loading, "market_loading") < math.inf:
            raise ValueError(
                f"market_loading must be finite and non-negative, got {self.market_loading!r}"
            )
        if not 0 < _real(self.idiosyncratic_sigma, "idiosyncratic_sigma") < math.inf:
            raise ValueError(
                f"idiosyncratic_sigma must be finite and positive, got {self.idiosyncratic_sigma!r}"
            )
        total = 0
        for entry in self.sector_spec:
            try:
                count, loading = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"sector_spec entry {entry!r} is not a (count, loading) pair"
                ) from None
            count = _integer(count, "sector_spec count")
            if count < 1 or not 0 <= _real(loading, "sector_spec loading") < math.inf:
                raise ValueError(
                    f"sector_spec entry {entry!r}: each sector needs count >= 1 "
                    "and a finite loading >= 0"
                )
            total += count
        if total > self.n_assets:
            raise ValueError(
                f"sector members ({total}) exceed n_assets ({self.n_assets})"
            )
        if self.intraday_profile is not None:
            self.intraday_profile = u = _as_array(self.intraday_profile, "intraday_profile")
            if u.shape != (self.bars_per_day,):
                raise ValueError("intraday_profile must have length bars_per_day")
            if not ((u > 0) & (u < np.inf)).all():
                raise ValueError("intraday_profile must be finite and strictly positive")
            if abs(np.log(u).mean()) > 1e-8:
                raise ValueError("intraday_profile must have unit geometric mean")
        if self.vol_clustering is not None:
            try:
                a, vol_of_vol = self.vol_clustering
            except (TypeError, ValueError):
                raise ValueError(
                    f"vol_clustering {self.vol_clustering!r} is not a "
                    "(persistence, vol-of-vol) pair"
                ) from None
            if not 0.0 <= _real(a, "vol_clustering persistence") < 1.0:
                raise ValueError("volatility persistence must be in [0, 1)")
            if not 0 <= _real(vol_of_vol, "vol_clustering vol-of-vol") < math.inf:
                raise ValueError("vol-of-vol must be finite and non-negative")
            self.vol_clustering = (float(a), float(vol_of_vol))
        if not 0 < _real(self.dt_seconds, "dt_seconds") < math.inf:
            raise ValueError(f"dt_seconds must be finite and positive, got {self.dt_seconds!r}")
        self.seed = _seed(self.seed)

    to_dict = _record


def _seed(value):
    """A stream seed: an integer that fits in an unsigned 64-bit word."""
    seed = _integer(value, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def _stream(seed, stream_id):
    """Independent deterministic stream `stream_id`: Philox keyed (seed, stream_id)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


def _sector_assignment(m: MarketModel):
    """Per-asset (sector index, loading); -1/0.0 for unassigned assets."""
    sector = np.full(m.n_assets, -1, dtype=int)
    loading = np.zeros(m.n_assets)
    start = 0
    for i, (count, beta) in enumerate(m.sector_spec):
        sector[start : start + count] = i
        loading[start : start + count] = beta
        start += count
    return sector, loading


def generate(m: MarketModel) -> ReturnPanel:
    """Draw one panel from the model; returned standardized.

    Common factors use dedicated streams; each asset's idiosyncratic noise and
    volatility innovations come from a stream keyed by (seed, asset index), so
    the panel is reproducible regardless of generation order.  The per-asset
    draws, the volatility scaling and the standardization each run as one
    row-block pass (:func:`xcorr.panel._each_block`), blocks of assets shared
    out among threads.  The draws go straight into the one (N, T) array that
    becomes the panel and into an (N, T) log-volatility buffer, and every
    later step writes in place, so the bits do not depend on the thread count.

    The log-volatility recursion v_k(j) = a*v_k(j-1) + s*eta_k(j), with
    stationary start v_k(0) = eta_k(0)*s/sqrt(1-a^2), is stepped over time once
    for all assets, one column of the buffer per step.  Each element goes
    through the same IEEE operations as the per-asset definition (only the
    operands of commutative multiplies and adds swap), so every row is
    bit-identical to running the recursion asset by asset.  The scaling pass
    takes each row block through exp, the volatility and the intraday
    profile; a log-volatility above ``_MAX_LOG_VOL`` is an error that names
    ``vol_clustering``, raised by the first such block before its exp.
    """
    _instance(m, MarketModel, "m")
    t = m.t_length
    market = _stream(m.seed, _FACTOR_STREAM_BASE).standard_normal(t)
    sectors = [
        _stream(m.seed, _FACTOR_STREAM_BASE + 1 + i).standard_normal(t)
        for i in range(len(m.sector_spec))
    ]
    sector_idx, sector_beta = _sector_assignment(m)

    rows = np.empty((m.n_assets, t))
    # Log-volatility buffer: row k holds asset k's scaled innovations, then v_k.
    v = None
    if m.vol_clustering is not None:
        v = np.empty((m.n_assets, t))
        a, s = m.vol_clustering
        s0 = s / math.sqrt(1.0 - a * a) if a > 0 else s
    common = m.market_loading * market

    def draw(b):
        for k in range(*b.indices(m.n_assets)):
            rng = _stream(m.seed, k)
            # common + sigma * eps (+ beta * S), one IEEE operation at a time.
            g = rng.standard_normal(out=rows[k])
            g *= m.idiosyncratic_sigma
            g += common
            if sector_idx[k] >= 0:
                g += sector_beta[k] * sectors[sector_idx[k]]
            if v is not None:
                eta = rng.standard_normal(out=v[k])
                eta[0] *= s0
                eta[1:] *= s

    _each_block(draw, rows)

    if v is not None:
        cols = iter(v.T)  # one view per step; a list of them would hold T views
        prev = next(cols)
        for cur in cols:
            cur += a * prev
            prev = cur

    u = None
    if m.intraday_profile is not None:
        reps = -(-t // m.bars_per_day)
        u = np.tile(m.intraday_profile, reps)[:t]

    def scale(b):
        if v is not None:
            w = v[b]
            top = w.max()
            if top > _MAX_LOG_VOL:
                raise ValueError(
                    f"vol_clustering={m.vol_clustering} drives the log-volatility to "
                    f"{top:.6g}, above {_MAX_LOG_VOL:.6g}: the scaled returns would overflow"
                )
            rows[b] *= np.exp(w, out=w)
        if u is not None:
            rows[b] *= u

    if v is not None or u is not None:
        _each_block(scale, rows)

    # A constant row stays centred, and the panel's validation names it.
    assets = [f"SYN{k:03d}" for k in range(m.n_assets)]
    _standardized_rows(rows, assets, out=rows)
    return ReturnPanel(
        assets=assets,
        returns=_frozen(rows),
        standardized=True,
        bars_per_day=m.bars_per_day,
        dt_seconds=m.dt_seconds,
    )


def expected_lambda1(m: MarketModel) -> float:
    """Asymptotic top eigenvalue 1 + (N-1)*rho for the single-factor model.

    rho = beta^2 / (beta^2 + sigma^2) is the pairwise correlation induced by
    the market factor.  Only valid without sectors or volatility clustering
    (an intraday profile cancels in the correlation and is allowed).
    """
    _instance(m, MarketModel, "m")
    if m.sector_spec or m.vol_clustering is not None:
        raise ValueError(
            "expected_lambda1 is only defined for a pure single-factor model"
        )
    beta2 = m.market_loading**2
    rho = beta2 / (beta2 + m.idiosyncratic_sigma**2)
    return 1.0 + (m.n_assets - 1) * rho


def burst_profile(bars_per_day: int, n_burst: int, level: float) -> np.ndarray:
    """Intraday multiplier with open/close activity bursts, unit geometric mean.

    The first and last n_burst/2 bars of the day run at `level` times the quiet
    bars' activity before normalization.
    """
    bars_per_day = _integer(bars_per_day, "bars_per_day")
    if not 0 < _integer(n_burst, "n_burst") < bars_per_day:
        raise ValueError("n_burst must be in (0, bars_per_day)")
    if not 0 < _real(level, "level") < math.inf:
        raise ValueError(f"level must be finite and positive, got {level!r}")
    u = np.ones(bars_per_day)
    head = n_burst // 2 + n_burst % 2
    tail = n_burst // 2
    u[:head] = level
    if tail:
        u[-tail:] = level
    return u / np.exp(np.log(u).mean())


# A 100-bar day at 234 s per bar makes a 6.5-hour session; T = 40600 gives the
# aspect ratio Q = 406 used throughout the verification suite.
_BASE = dict(n_assets=100, t_length=40600, bars_per_day=100, dt_seconds=234.0)

# market_loading for mean pairwise correlation 0.18 at sigma = 1:
# rho = b^2/(b^2+1) = 0.18  =>  b = sqrt(0.18/0.82).
_RHO_018_LOADING = math.sqrt(0.18 / 0.82)

PRESET_NAMES = ("mp_null", "one_factor", "market_sectors", "intraday")


def preset(name: str, seed: int = 0, **overrides) -> MarketModel:
    """Named model presets used by the verification suite and the CLI.

    mp_null         pure i.i.d. noise (Wishart/MP null)
    one_factor      market factor with mean pairwise correlation 0.18
    market_sectors  one_factor plus two 20-asset sectors at loading 0.5
    intraday        one_factor plus an open/close activity-burst day profile
    """
    if name == "mp_null":
        cfg = dict(_BASE, market_loading=0.0)
    elif name == "one_factor":
        cfg = dict(_BASE, market_loading=_RHO_018_LOADING)
    elif name == "market_sectors":
        # Wider cross-section than the other presets: removing k modes leaves
        # k exact zero eigenvalues, and trace conservation re-inflates the
        # bulk by N/(N-k).  At N=400 that 0.75% stays inside the RMT band,
        # so the spectrum after full removal is clean.
        cfg = dict(
            _BASE,
            n_assets=400,
            market_loading=_RHO_018_LOADING,
            sector_spec=[(20, 0.5), (20, 0.5)],
        )
    elif name == "intraday":
        cfg = dict(
            _BASE,
            market_loading=_RHO_018_LOADING,
            intraday_profile=_frozen(burst_profile(_BASE["bars_per_day"], 10, 6.0)),
        )
    else:
        raise ValueError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    unknown = sorted(set(overrides) - {f.name for f in fields(MarketModel)})
    if unknown:
        raise ValueError(f"unknown MarketModel field(s) {unknown} for preset {name!r}")
    cfg.update(overrides)
    return MarketModel(seed=seed, **cfg)
