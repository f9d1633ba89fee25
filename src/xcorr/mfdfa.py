"""Multifractal Detrended Fluctuation Analysis of a single series.

Pipeline: profile -> segment-wise polynomial detrending (segments taken from
both ends of the series) -> q-th order fluctuation functions F_q(n) ->
generalized Hurst exponents h(q) -> Legendre singularity spectrum f(alpha).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .panel import _as_array, _each, _frozen, _integer, _real, _record

__all__ = [
    "MfdfaConfig",
    "FluctuationSurface",
    "SingularitySpectrum",
    "default_q_grid",
    "default_scales",
    "profile",
    "segment_variances",
    "fluctuation",
    "fluctuation_surface",
    "singularity_spectrum",
    "analyze",
    "average_spectra",
    "binomial_cascade",
]

F_TOL = 1e-6
ALPHA_TOL = 1e-6

# Most levels of binomial_cascade: 2**30 points already take 8 GiB per array.
_MAX_CASCADE_LEVELS = 30


def default_q_grid() -> np.ndarray:
    """Moment orders -4..4 in steps of 0.2, with q = 0 exactly representable."""
    return np.arange(-20, 21) * 0.2


def default_scales(n_length: int, min_scale: int = 16, n_scales: int = 20) -> np.ndarray:
    """Geometrically spaced integer segment lengths from min_scale to n_length/20."""
    max_scale = n_length // 20
    if max_scale <= min_scale:
        raise ValueError(
            f"series of length {n_length} too short for scales up to length/20 "
            f"with min scale {min_scale}"
        )
    return _geometric_scales(min_scale, max_scale, n_scales)


def _geometric_scales(lo, hi, count) -> np.ndarray:
    """The distinct integers nearest `count` geometrically spaced points from lo to hi."""
    return _frozen(np.unique(np.rint(np.geomspace(lo, hi, count)).astype(int)))


def _whole(values, name):
    """`values` as a read-only int array (see :func:`xcorr.panel._as_array`), or
    a ValueError naming `name` if one is not a whole number: a cast would
    truncate it."""
    whole = _as_array(values, name)
    if not (np.isfinite(whole) & (whole == np.trunc(whole))).all():
        raise ValueError(f"{name} must hold whole segment lengths, got {whole.tolist()}")
    return _as_array(values, name, int)


@dataclass
class MfdfaConfig:
    """Moment grid, detrending order and segment scales.

    ``scale_grid`` may be None, in which case default_scales(len(series)) is
    used at analysis time.  h(q) is fitted over every scale.
    """

    q_grid: np.ndarray = field(default_factory=default_q_grid)
    detrend_order: int = 2
    scale_grid: np.ndarray = None

    def __post_init__(self):
        self.q_grid = q = _as_array(self.q_grid, "q_grid")
        if q.ndim != 1 or q.size < 5:
            raise ValueError("q_grid must be a 1-D array of at least 5 moments")
        if not np.isfinite(q).all():
            raise ValueError(f"q_grid must hold finite moments, got {q.tolist()}")
        if (np.diff(q) <= 0).any():
            raise ValueError("q_grid must be strictly increasing")
        small = (np.abs(q) < 0.1) & (q != 0.0)
        if small.any():
            raise ValueError(
                "q values in (-0.1, 0.1) other than exactly 0 are not allowed "
                "(the generalized mean is ill-conditioned there)"
            )
        self.detrend_order = _integer(self.detrend_order, "detrend_order")
        if self.detrend_order < 1:
            raise ValueError("detrend_order must be a positive integer")
        if self.scale_grid is not None:
            self.scale_grid = s = _whole(self.scale_grid, "scale_grid")
            if s.ndim != 1:
                raise ValueError("scale_grid must be a 1-D array of segment lengths")
            if s.size < 5:
                raise ValueError(f"need at least 5 scales to fit h(q), got {s.size}")
            if (np.diff(s) <= 0).any():
                raise ValueError("scales must be strictly increasing")
            if s[0] < self.detrend_order + 2:
                raise ValueError(
                    f"minimum scale {s[0]} must be >= detrend_order + 2 "
                    f"= {self.detrend_order + 2} for an over-determined fit"
                )

    def resolved_scales(self, n_length: int) -> np.ndarray:
        scales = self.scale_grid if self.scale_grid is not None else default_scales(n_length)
        if scales.size < 5:
            raise ValueError(f"need at least 5 scales to fit h(q), got {scales.size}")
        if scales[-1] > n_length // 4:
            raise ValueError(
                f"largest scale {scales[-1]} exceeds length/4 = {n_length // 4}; "
                "fewer than 4 segments give meaningless statistics"
            )
        return scales


@dataclass
class FluctuationSurface:
    """F_q(n) over the (q, scale) grid, with the per-q power-law fit derived from it.

    values[iq, iscale] > 0 everywhere; rows are non-decreasing in q for fixed
    scale (generalized-mean monotonicity).  ``h`` is the least-squares slope of
    ln F_q(n) against ln n over every scale, one per q, and ``fit_residual``
    the RMS of that fit's residuals, a scaling-quality diagnostic: a large
    value means F_q(n) is not a clean power law there.  Both are fitted when
    the record is built.
    """

    q_grid: np.ndarray
    scales: np.ndarray
    values: np.ndarray
    h: np.ndarray = field(init=False)
    fit_residual: np.ndarray = field(init=False)

    def __post_init__(self):
        self.q_grid = _as_array(self.q_grid, "q_grid")
        self.scales = _whole(self.scales, "scales")
        self.values = v = _as_array(self.values, "values")
        if v.shape != (self.q_grid.size, self.scales.size):
            raise ValueError("surface shape must be (len(q_grid), len(scales))")
        if v.shape[1] < 2:
            raise ValueError(f"need at least 2 scales to fit h(q), got {v.shape[1]}")
        if not np.isfinite(v).all() or (v <= 0).any():
            raise ValueError("fluctuation surface must be finite and positive")
        if (np.diff(v, axis=0) < -1e-9 * v[:-1]).any():
            raise ValueError("F_q(n) must be non-decreasing in q for each scale")
        ln_n = np.log(self.scales)
        design = np.column_stack([ln_n, np.ones_like(ln_n)])
        ln_f = np.log(v).T
        coef = _frozen(np.linalg.lstsq(design, ln_f, rcond=None)[0])
        self.h = coef[0]
        self.fit_residual = _frozen(np.sqrt(np.mean((ln_f - design @ coef) ** 2, axis=0)))

    to_dict = _record


@dataclass
class SingularitySpectrum:
    """Sampled q, h(q), alpha(q), f(alpha(q)) with the spectrum width.

    ``width`` is max(alpha) - min(alpha).  ``alpha_monotone`` and
    ``f_within_bound`` record whether alpha was non-increasing in q and f
    stayed at or below 1, each within tolerance.  An exact Legendre spectrum
    satisfies both; small violations are fit noise (a locally rising h(q)
    estimate), reported as warnings rather than errors so noisy series still
    produce a usable diagnostic result.  All three are derived from alpha and f.
    """

    q: np.ndarray
    h: np.ndarray
    alpha: np.ndarray
    f: np.ndarray
    width: float = field(init=False)
    alpha_monotone: bool = field(init=False)
    f_within_bound: bool = field(init=False)

    def __post_init__(self):
        for name in ("q", "h", "alpha", "f"):
            arr = _as_array(getattr(self, name), name)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
            setattr(self, name, arr)
        if not self.q.size == self.h.size == self.alpha.size == self.f.size:
            raise ValueError("q, h, alpha, f must have equal length")
        self.width = float(self.alpha.max() - self.alpha.min())
        self.alpha_monotone = bool((np.diff(self.alpha) <= ALPHA_TOL).all())
        self.f_within_bound = bool((self.f <= 1.0 + F_TOL).all())

    to_dict = _record


def profile(x) -> np.ndarray:
    """Cumulative sum of the mean-subtracted series (Y in the DFA literature)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("input must be a 1-D series of at least 2 points")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    y = np.cumsum(x - x.mean())
    tol = 1e-8 * x.size * max(x.std(), 1e-300)
    if abs(y[-1]) > tol:
        raise ValueError("profile does not return to zero; numerical failure")
    return y


@functools.lru_cache(maxsize=128)
def _detrend_basis(n, l):
    """Orthonormal basis of the order-l polynomials on n centered coordinates
    (conditioned at large n), read-only: every series shares one per scale.
    Two threads may each build the same basis once; the QR is deterministic,
    so either copy has the same bits."""
    basis, _ = np.linalg.qr(np.vander(np.linspace(-1.0, 1.0, n), l + 1, increasing=True))
    return _frozen(basis)


def segment_variances(y, n: int, l: int = 2) -> np.ndarray:
    """Detrended variances of all length-n segments, from both ends.

    The profile is cut into M = floor(len(y)/n) non-overlapping segments
    starting at the beginning and another M starting at the end, so a trailing
    remainder is never ignored entirely.  In each segment an order-l
    polynomial is removed and the variance uses divisor n.
    Returns the 2M variances, forward segments first.
    """
    n = _integer(n, "scale n")
    l = _integer(l, "detrend order l")
    y = np.asarray(y, dtype=float)
    if l < 1:
        raise ValueError("detrend order must be >= 1")
    if n <= l + 1:
        raise ValueError(
            f"scale {n} with detrend order {l} is under-determined; need n >= {l + 2}"
        )
    if n > y.size // 4:
        raise ValueError(f"scale {n} too large for series of length {y.size}; need >= 4 segments")
    m = y.size // n
    fwd = y[: m * n].reshape(m, n)
    bwd = y[y.size - m * n :].reshape(m, n)
    segments = np.concatenate((fwd, bwd))

    # The trend is each segment's projection on the polynomial basis; the
    # stacked copy is detrended and squared in place.
    basis = _detrend_basis(n, l)
    segments -= (segments @ basis) @ basis.T
    return np.add.reduce(np.square(segments, out=segments), axis=1) / n


def fluctuation(variances, q_grid) -> np.ndarray:
    """F_q of one scale's segment variances for every q of the grid.

    The generalized mean {(1/2M) sum [F^2]^(q/2)}^(1/q); at q = 0 the
    logarithmic-mean limit exp{(1/4M) sum ln F^2} is used.
    """
    v = np.asarray(variances, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("variances must be a non-empty 1-D array")
    if (v < 0).any():
        raise ValueError("variances must be non-negative")
    if not (v > 0).any():
        raise ValueError("all segment variances are zero")
    q = np.asarray(q_grid, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q_grid must be a non-empty 1-D array")
    if q.min() <= 0 and (v == 0).any():
        raise ValueError(
            "zero segment variance makes the q <= 0 moment diverge; "
            "raise the minimum scale so every segment has signal"
        )
    zero = q == 0
    p = np.where(zero, 1.0, q)
    out = (np.add.reduce(v ** (p[:, None] / 2.0), axis=1) / v.size) ** (1.0 / p)
    if zero.any():
        out[zero] = np.exp(0.5 * (np.add.reduce(np.log(v)) / v.size))
    return out


def fluctuation_surface(x, cfg: MfdfaConfig = None) -> FluctuationSurface:
    """F_q(n) over the full (q, scale) grid for one series.

    The scales are shared out among the row-block threads, smallest first
    (they carry most of the moment work); each column is the serial code on
    the same inputs, so the bits do not depend on the threads, and a failure
    raises the error of the first failing scale.
    """
    if cfg is None:
        cfg = MfdfaConfig()
    y = profile(x)
    scales = cfg.resolved_scales(y.size)
    l, q = cfg.detrend_order, cfg.q_grid
    values = np.column_stack(
        _each(lambda n: fluctuation(segment_variances(y, n, l), q), [int(n) for n in scales])
    )
    return FluctuationSurface(q_grid=cfg.q_grid, scales=scales, values=_frozen(values))


def singularity_spectrum(h, q_grid) -> SingularitySpectrum:
    """Legendre spectrum: alpha = h + q h'(q), f = q (alpha - h) + 1.

    h'(q) uses central finite differences, one-sided at the grid ends.
    """
    h = _as_array(h, "h")
    q = _as_array(q_grid, "q_grid")
    if h.size != q.size:
        raise ValueError("h and q_grid must have equal length")
    if h.size < 5:
        raise ValueError("need h on at least 5 q points")
    dh = np.gradient(h, q)
    alpha = h + q * dh
    f = q * (alpha - h) + 1.0
    spec = SingularitySpectrum(q=q, h=h, alpha=_frozen(alpha), f=_frozen(f))
    if not spec.alpha_monotone:
        warnings.warn(
            "alpha(q) is not monotone non-increasing; the h(q) fit is noisy "
            "in part of the q range"
        )
    if not spec.f_within_bound:
        warnings.warn(
            f"f(alpha) exceeds 1 by up to {f.max() - 1.0:.2e}; the h(q) fit "
            "rises with q somewhere (fit noise)"
        )
    return spec


def analyze(x, cfg: MfdfaConfig = None):
    """End-to-end MFDFA of one series: (FluctuationSurface, SingularitySpectrum)."""
    if cfg is None:
        cfg = MfdfaConfig()
    surface = fluctuation_surface(x, cfg)
    return surface, singularity_spectrum(surface.h, cfg.q_grid)


def average_spectra(spectra) -> SingularitySpectrum:
    """Average several singularity spectra parametrically at fixed q.

    alpha and f are averaged point by point over the shared q grid (not by
    resampling f as a function of alpha), so each moment order contributes one
    averaged (alpha, f) point.
    """
    spectra = list(spectra)
    if not spectra:
        raise ValueError("need at least one spectrum to average")
    if not all(isinstance(s, SingularitySpectrum) for s in spectra):
        raise ValueError(f"spectra must be SingularitySpectrum records, got {spectra!r}")
    q = spectra[0].q
    for s in spectra[1:]:
        if s.q.shape != q.shape or not np.allclose(s.q, q):
            raise ValueError("all spectra must share the same q grid")
    h = _frozen(np.mean([s.h for s in spectra], axis=0))
    alpha = _frozen(np.mean([s.alpha for s in spectra], axis=0))
    f = _frozen(np.mean([s.f for s in spectra], axis=0))
    return SingularitySpectrum(q=q, h=h, alpha=alpha, f=f)


def binomial_cascade(p: float, n_levels: int) -> np.ndarray:
    """Deterministic binomial measure of length 2**n_levels.

    Entry k is p**(number of 1-bits of k) * (1-p)**(number of 0-bits); a
    standard multifractal benchmark whose h(q) is known in closed form:
    h(q) = 1/q - log2(p**q + (1-p)**q)/q.
    """
    if not 0.0 < _real(p, "p") < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    n_levels = _integer(n_levels, "n_levels")
    if not 1 <= n_levels <= _MAX_CASCADE_LEVELS:
        raise ValueError(f"n_levels must be in [1, {_MAX_CASCADE_LEVELS}], got {n_levels}")
    k = np.arange(2**n_levels, dtype=np.int64)
    bits = np.zeros(k.size, dtype=np.int64)
    for b in range(n_levels):
        bits += (k >> b) & 1
    return p**bits * (1.0 - p) ** (n_levels - bits)
