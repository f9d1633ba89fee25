"""Eigensignals (principal-portfolio return series) and iterative removal of
collective modes by least-squares regression."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .panel import (ReturnPanel, _as_array, _each_block, _frozen, _integer, _kept_rows, _real,
                    standardize)
from .spectrum import EigenSpectrum, correlation_matrix, eigendecompose

__all__ = [
    "Eigensignal",
    "ResidualPanel",
    "eigensignals",
    "remove_mode",
    "remove_modes_iterative",
]

RISK_TOL = 1e-8
RESIDUAL_VAR_TOL = 1e-14
ORTHO_TOL = 1e-8


@dataclass
class Eigensignal:
    """Return series of the portfolio weighted by eigenvector x_i.

    ``index`` is the 1-based eigenvalue rank (1 = largest, the market mode).
    Population variance of the series equals the eigenvalue: holding this
    portfolio realizes exactly lambda_i of risk.
    """

    index: int
    series: np.ndarray
    eigenvalue: float

    def __post_init__(self):
        self.series = s = _as_array(self.series, "series")
        if s.ndim != 1:
            raise ValueError("eigensignal series must be one-dimensional")
        self.index = _integer(self.index, "index")
        if self.index < 1:
            raise ValueError("eigensignal index is 1-based and must be >= 1")
        var = s.var()
        self.eigenvalue = lam = _real(self.eigenvalue, "eigenvalue")
        if lam > 1e-10:
            if abs(var - lam) / lam >= RISK_TOL:
                raise ValueError(
                    f"risk identity violated for mode {self.index}: "
                    f"var={var!r} vs eigenvalue={lam!r}"
                )
        elif var >= 1e-8:
            raise ValueError(f"mode {self.index} has near-zero eigenvalue but variance {var!r}")


@dataclass
class ResidualPanel:
    """Standardized residuals after one or more mode-removal passes.

    ``removed_modes`` lists the 1-based rank removed at each pass; ``alphas``
    and ``betas`` hold one coefficient array per pass, aligned with
    ``pass_assets`` (the asset list at the start of that pass) and ``spectra``
    (the EigenSpectrum of the panel entering that pass).  Assets whose
    residual variance collapses to zero are dropped and recorded in
    ``dropped_assets``.  ``spectra`` is not part of :meth:`to_dict`.
    """

    panel: ReturnPanel
    removed_modes: list
    alphas: list
    betas: list
    pass_assets: list
    dropped_assets: list
    spectra: list

    def __post_init__(self):
        n_pass = len(self.removed_modes)
        lengths = (len(self.alphas), len(self.betas), len(self.pass_assets), len(self.spectra))
        if any(n != n_pass for n in lengths):
            raise ValueError("per-pass bookkeeping lists must have equal length")
        self.alphas = [_as_array(a, "alphas") for a in self.alphas]
        self.betas = [_as_array(b, "betas") for b in self.betas]

    def to_dict(self):
        passes = []
        for m, a, b, names in zip(self.removed_modes, self.alphas, self.betas, self.pass_assets):
            passes.append(
                {
                    "mode": m,
                    "assets": list(names),
                    "alphas": a.tolist(),
                    "betas": b.tolist(),
                }
            )
        return {
            "removed_modes": list(self.removed_modes),
            "passes": passes,
            "dropped_assets": list(self.dropped_assets),
            "assets": list(self.panel.assets),
        }


def eigensignals(r: ReturnPanel, s: EigenSpectrum, indices) -> list:
    """Eigensignals z_i(j) = sum_k x_i^(k) g_k(j) for the requested 1-based ranks."""
    if not r.standardized:
        raise ValueError("eigensignals require a standardized panel")
    if s.n_series != r.n_assets:
        raise ValueError(
            f"spectrum is for {s.n_series} series but panel has {r.n_assets} assets"
        )
    out = []
    for i in indices:
        i = _integer(i, "mode index")
        if not 1 <= i <= s.n_series:
            raise ValueError(f"mode index {i} outside 1..{s.n_series}")
        z = s.eigenvectors[:, i - 1] @ r.returns
        out.append(Eigensignal(index=i, series=_frozen(z), eigenvalue=float(s.eigenvalues[i - 1])))
    return out


def _regress_out(r: ReturnPanel, z: Eigensignal, out=None):
    """OLS of each asset row on (1, z); returns re-standardized residual panel
    plus the per-asset coefficients and the names of dropped assets.

    beta = m @ zc / zc.zc is one whole-panel product: a threaded BLAS can give
    a block of rows other last bits than the same rows of the whole.  One
    row-block pass (:func:`xcorr.panel._each_block`, the blocks shared out
    among threads) then takes each block while it is in cache through alpha,
    the residual m - alpha - beta z, its row variance, its dot with z and its
    scaling to unit variance.  Each element sees the operations of the
    whole-panel expressions, so the bits are theirs.  The drop warnings,
    the all-dropped error and the orthogonality check follow the pass, in
    asset order.  The residuals go to `out`'s leading rows (a new array
    unless given; it may hold ``r.returns``), and the kept rows move down in
    place.  `out` is writable, owns its data, and only the caller holds it.
    """
    series = z.series
    if series.shape != (r.t_length,):
        raise ValueError(
            f"eigensignal length {series.size} does not match panel length {r.t_length}"
        )
    z_var = series.var()
    if z_var < RESIDUAL_VAR_TOL:
        raise ValueError("zero-variance regressor: cannot remove a degenerate mode")
    z_mean = series.mean()
    zc = series - z_mean
    m = r.returns
    n = r.n_assets
    betas = (m @ zc) / (zc @ zc)
    out = np.empty_like(m) if out is None else out
    resid = out[:n]
    alphas, res_var, dots = np.empty(n), np.empty(n), np.empty(n)
    t = r.t_length

    def regress(b):
        e = resid[b]
        alphas[b] = m[b].mean(axis=1) - betas[b] * z_mean
        np.subtract(m[b], alphas[b, None], out=e)
        # The block's one scratch holds beta z, then the centred residual
        # whose squares give e.var(axis=1) with the operations of numpy's var.
        w = np.multiply(betas[b, None], series)
        e -= w
        np.subtract(e, np.add.reduce(e, axis=1, keepdims=True) / t, out=w)
        res_var[b] = np.add.reduce(np.multiply(w, w, out=w), axis=1) / t
        dots[b] = e @ series
        v = res_var[b, None]
        np.divide(e, np.sqrt(v), out=e, where=v >= RESIDUAL_VAR_TOL)

    _each_block(regress, m)
    keep = res_var >= RESIDUAL_VAR_TOL
    dropped = [a for a, k in zip(r.assets, keep) if not k]
    for name in dropped:
        warnings.warn(f"asset {name} perfectly explained by removed mode; dropped")
    if not keep.any():
        raise ValueError("all assets perfectly explained by the removed mode")

    dots = np.abs(dots[keep]) / (r.t_length * np.sqrt(res_var[keep]) * np.sqrt(z_var))
    if dots.max() >= ORTHO_TOL:
        raise ValueError("residuals are not orthogonal to the removed mode within 1e-8")

    assets = [a for a, k in zip(r.assets, keep) if k]
    panel = replace(r, assets=assets, returns=_kept_rows(out, keep), standardized=True)
    return panel, _frozen(alphas), _frozen(betas), dropped


def remove_mode(r: ReturnPanel, z: Eigensignal) -> ResidualPanel:
    """Remove one eigensignal from every asset by OLS with intercept.

    Each row becomes the residual of g_k = alpha_k + beta_k z + eps_k,
    re-standardized so later correlation matrices keep unit diagonal.
    """
    out, alphas, betas, dropped = _regress_out(r, z)
    return ResidualPanel(
        panel=out,
        removed_modes=[z.index],
        alphas=[alphas],
        betas=[betas],
        pass_assets=[list(r.assets)],
        dropped_assets=dropped,
        spectra=[eigendecompose(correlation_matrix(r))],
    )


def remove_modes_iterative(r: ReturnPanel, count: int, from_original: bool = False) -> ResidualPanel:
    """Run `count` removal passes, re-diagonalizing the residuals each time.

    By default each pass removes the *current* residual matrix's top mode
    (sequential reading of repeated removal).  With ``from_original=True`` the
    regressors are the original panel's eigensignals z_1..z_count instead.
    Either way the spectrum of the panel entering each pass is recorded in
    ``spectra``.  The caller's panel is never written: every pass writes its
    residuals into the one buffer allocated here.
    """
    count = _integer(count, "count")
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > r.n_assets:
        raise ValueError(f"count must be at most the number of assets N={r.n_assets}, got {count}")
    current = standardize(r)
    resid = np.empty((r.n_assets, r.t_length))
    removed, alphas, betas, pass_assets, dropped, spectra = [], [], [], [], [], []

    for p in range(count):
        spec = eigendecompose(correlation_matrix(current))
        spectra.append(spec)
        if from_original:
            if p == 0:
                regressors = eigensignals(current, spec, range(1, count + 1))
            z = regressors[p]
        else:
            (z,) = eigensignals(current, spec, [1])
            # Sequential passes always strip the current top mode; label it
            # with the pass rank so the record reads "modes 1..count removed".
            z = Eigensignal(index=p + 1, series=z.series, eigenvalue=z.eigenvalue)
        pass_assets.append(list(current.assets))
        resid.setflags(write=True)  # the last pass froze it; only this loop holds it
        current, a, b, d = _regress_out(current, z, resid)
        removed.append(z.index)
        alphas.append(a)
        betas.append(b)
        dropped.extend(d)

    return ResidualPanel(
        panel=current,
        removed_modes=removed,
        alphas=alphas,
        betas=betas,
        pass_assets=pass_assets,
        dropped_assets=dropped,
        spectra=spectra,
    )
