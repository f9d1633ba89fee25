"""Correlation matrices, their eigenspectra, Marchenko-Pastur bounds, and the
distribution of matrix elements."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .panel import ReturnPanel, _as_array, _each, _frozen, _integer, _real, _record, _standardized

__all__ = [
    "CorrelationMatrix",
    "EigenSpectrum",
    "MpBounds",
    "ElementDistribution",
    "correlation_matrix",
    "eigendecompose",
    "mp_bounds",
    "overlap_fraction",
    "element_distribution",
    "windowed_element_distribution",
]

SYM_TOL = 1e-12
DIAG_TOL = 1e-10
RANGE_TOL = 1e-10
TRACE_TOL = 1e-8
ORTHO_TOL = 1e-8

# Rows per tile of the Gram product M M^T.  The tiling depends only on N, so
# the bits do not depend on how many threads share the tiles; every N up to
# 200 is one tile, the single product ``m @ m.T``.
_GRAM_TILE = 200


@dataclass
class CorrelationMatrix:
    """Symmetric N x N Pearson correlation matrix with unit diagonal."""

    values: np.ndarray
    t_length: int

    def __post_init__(self):
        self.values = v = _as_array(self.values, "values")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {v.shape}")
        if np.abs(v - v.T).max() >= SYM_TOL:
            raise ValueError("matrix is not symmetric within 1e-12")
        if np.abs(np.diag(v) - 1.0).max() >= DIAG_TOL:
            raise ValueError("diagonal entries must equal 1 within 1e-10")
        if v.min() < -1.0 - RANGE_TOL or v.max() > 1.0 + RANGE_TOL:
            raise ValueError("entries must lie in [-1, 1]")
        if abs(np.trace(v) - v.shape[0]) >= TRACE_TOL:
            raise ValueError("trace must equal N within 1e-8")
        if self.t_length < 2:
            raise ValueError("t_length must be at least 2")

    @property
    def n_series(self):
        return self.values.shape[0]

    @property
    def q(self):
        """Aspect ratio Q = T/N of the underlying data matrix."""
        return self.t_length / self.n_series


@dataclass
class EigenSpectrum:
    """Descending eigenvalues with orthonormal eigenvectors (column i is x_i).

    The sign of each eigenvector is fixed so its largest-|component| entry is
    positive, making derived portfolio series reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source_q: float

    def __post_init__(self):
        self.eigenvalues = vals = _as_array(self.eigenvalues, "eigenvalues")
        self.eigenvectors = vecs = _as_array(self.eigenvectors, "eigenvectors")
        n = vals.size
        if vecs.shape != (n, n):
            raise ValueError("eigenvector matrix must be N x N")
        if (np.diff(vals) > 0).any():
            raise ValueError("eigenvalues must be sorted in descending order")
        gram = vecs.T @ vecs
        if np.abs(gram - np.eye(n)).max() >= ORTHO_TOL:
            raise ValueError("eigenvectors are not orthonormal within 1e-8")
        lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
        if (lead < 0).any():
            raise ValueError("sign convention violated: leading component must be positive")
        self.source_q = _real(self.source_q, "source_q")
        if not self.source_q > 0:
            raise ValueError("source_q must be positive")

    @property
    def n_series(self):
        return self.eigenvalues.size

    def to_dict(self):
        d = _record(self)
        d["eigenvectors_row_major"] = d.pop("eigenvectors")
        return d


@dataclass
class MpBounds:
    """Support edges 1 + 1/Q +/- 2/sqrt(Q) of the random (Wishart) eigenvalue bulk,
    derived from Q."""

    q: float
    lambda_min: float = field(init=False)
    lambda_max: float = field(init=False)

    def __post_init__(self):
        self.q = _real(self.q, "Q")
        if not self.q > 0:
            raise ValueError(f"Q must be positive, got {self.q}")
        self.lambda_min = 1.0 + 1.0 / self.q - 2.0 / math.sqrt(self.q)
        self.lambda_max = 1.0 + 1.0 / self.q + 2.0 / math.sqrt(self.q)

    @property
    def width(self):
        return self.lambda_max - self.lambda_min

    to_dict = _record


@dataclass
class ElementDistribution:
    """Histogram of off-diagonal correlation entries with a moment Gaussian fit.

    ``tail_deviation`` is the (empirical - fit) density at the bin holding the
    99th percentile of the entries, in units of the per-bin residual standard
    deviation. ``degenerate``, derived from ``gaussian_sigma == 0``, flags a
    zero-width distribution (fit undefined, ``tail_deviation`` NaN).
    """

    bin_edges: np.ndarray
    densities: np.ndarray
    gaussian_mu: float
    gaussian_sigma: float
    tail_deviation: float
    degenerate: bool = field(init=False)
    n_entries: int

    def __post_init__(self):
        self.bin_edges = edges = _as_array(self.bin_edges, "bin_edges")
        self.densities = dens = _as_array(self.densities, "densities")
        if edges.ndim != 1 or dens.ndim != 1 or edges.size != dens.size + 1:
            raise ValueError(
                f"bin_edges and densities must be 1-D with one more edge than densities, "
                f"got shapes {edges.shape} and {dens.shape}"
            )
        self.degenerate = bool(self.gaussian_sigma == 0.0)

    to_dict = _record


def _gram(m):
    """``m @ m.T`` over the upper triangle of `_GRAM_TILE`-row tiles, the tiles
    shared out among threads by :func:`xcorr.panel._each`.

    A diagonal tile is one symmetric product (syrk), which numpy mirrors
    exactly; an off-diagonal tile is one general product written in place and
    copied to its mirror, so the result is exactly symmetric.
    """
    n = m.shape[0]
    out = np.empty((n, n))
    starts = range(0, n, _GRAM_TILE)
    tiles = [(i, j) for i in starts for j in starts if j >= i]

    def tile(ij):
        i, j = ij
        a, b = m[i:i + _GRAM_TILE], m[j:j + _GRAM_TILE]
        blk = np.matmul(a, b.T, out=out[i:i + _GRAM_TILE, j:j + _GRAM_TILE])
        if i != j:
            out[j:j + _GRAM_TILE, i:i + _GRAM_TILE] = blk.T

    _each(tile, tiles)
    return out


def correlation_matrix(r: ReturnPanel) -> CorrelationMatrix:
    """Pearson correlation matrix C = (1/T) M M^T of a standardized panel."""
    if not r.standardized:
        raise ValueError("correlation_matrix requires a standardized panel; call standardize() first")
    c = _gram(r.returns)
    c /= r.t_length
    # Normalizing by the realized row scales pins the diagonal at exactly 1;
    # for standardized rows this changes entries only at rounding level.
    d = np.sqrt(np.diag(c))
    c = c / np.outer(d, d)
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(values=_frozen(c), t_length=r.t_length)


def eigendecompose(c: CorrelationMatrix) -> EigenSpectrum:
    """Full eigensystem of C, eigenvalues descending, signs fixed."""
    vals, vecs = np.linalg.eigh(c.values)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    n = vals.size
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    vecs[:, lead < 0] *= -1.0
    spectrum = EigenSpectrum(eigenvalues=_frozen(vals), eigenvectors=_frozen(vecs), source_q=c.q)
    recon = (vecs * vals) @ vecs.T
    if np.abs(recon - c.values).max() >= 1e-8:
        raise ValueError("eigendecomposition failed to reconstruct the matrix within 1e-8")
    if abs(vals.sum() - n) >= TRACE_TOL:
        raise ValueError("eigenvalue sum does not conserve the trace within 1e-8")
    return spectrum


def mp_bounds(q: float) -> MpBounds:
    """Closed-form bulk edges for aspect ratio Q = T/N."""
    return MpBounds(q)


def overlap_fraction(s: EigenSpectrum, b: MpBounds) -> float:
    """Fraction of eigenvalues inside [lambda_min, lambda_max]."""
    inside = (s.eigenvalues >= b.lambda_min) & (s.eigenvalues <= b.lambda_max)
    return float(inside.mean())


def _bin_count(n_bins):
    """`n_bins` as an int of at least 10, or a ValueError naming it."""
    n_bins = _integer(n_bins, "n_bins")
    if n_bins < 10:
        raise ValueError(f"need at least 10 bins, got {n_bins}")
    return n_bins


def _distribution_from_entries(entries: np.ndarray, n_bins: int) -> ElementDistribution:
    densities, edges = map(_frozen, np.histogram(entries, bins=n_bins, density=True))
    mu = float(entries.mean())
    sigma = float(entries.std())
    tail = float("nan")
    if sigma != 0.0:
        centers = 0.5 * (edges[:-1] + edges[1:])
        fit = np.exp(-0.5 * ((centers - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        resid = densities - fit
        sigma_resid = float(resid.std())
        p99 = float(np.quantile(entries, 0.99))
        idx = int(np.clip(np.searchsorted(edges, p99, side="right") - 1, 0, n_bins - 1))
        tail = float(resid[idx] / sigma_resid) if sigma_resid > 0 else 0.0
    return ElementDistribution(bin_edges=edges, densities=densities, gaussian_mu=mu,
                               gaussian_sigma=sigma, tail_deviation=tail, n_entries=entries.size)


def element_distribution(c: CorrelationMatrix, n_bins: int = 50) -> ElementDistribution:
    """Unit-area histogram of the off-diagonal entries, each pair counted once."""
    if c.n_series < 3:
        raise ValueError("need at least 3 series for a meaningful element distribution")
    n_bins = _bin_count(n_bins)
    entries = c.values[np.triu_indices(c.n_series, k=1)]
    return _distribution_from_entries(entries, n_bins)


def windowed_element_distribution(
    r: ReturnPanel, q_target: float, n_bins: int = 50
) -> ElementDistribution:
    """Pooled off-diagonal entries from non-overlapping windows of length ~q_target*N.

    Each window is standardized on its own, straight from its slice of the
    returns, before its correlation matrix is built, so short-window sampling
    noise enters exactly as it would for a panel recorded at that aspect ratio.
    """
    n = r.n_assets
    if n < 3:
        raise ValueError("need at least 3 series for a meaningful element distribution")
    q_target = _real(q_target, "q_target")
    if not 0 < q_target < math.inf:
        raise ValueError(f"q_target must be finite and positive, got {q_target!r}")
    n_bins = _bin_count(n_bins)
    # A window longer than the panel holds nothing; capping it there keeps a
    # huge q_target * N from overflowing int().
    window = int(round(min(q_target * n, r.t_length + 1)))
    if window < 2:
        raise ValueError(
            f"window length {window} is too short: q_target*N = {q_target * n:.6g} "
            f"(q_target={q_target}, N={n})"
        )
    n_windows = r.t_length // window
    if n_windows < 1:
        raise ValueError(
            f"panel of length {r.t_length} holds no full window of length "
            f"q_target*N = {q_target * n:.6g} (q_target={q_target}, N={n})"
        )
    pooled = []
    iu = np.triu_indices(n, k=1)
    for w in range(n_windows):
        c = correlation_matrix(_standardized(r, r.returns[:, w * window : (w + 1) * window]))
        pooled.append(c.values[iu])
    return _distribution_from_entries(np.concatenate(pooled), n_bins)
