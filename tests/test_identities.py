"""The paper's identities as metamorphic checks: transform the input in a way
the theory says is harmless and compare outputs at the library's own
tolerances."""

import numpy as np
import pytest

from xcorr.modes import RISK_TOL, eigensignals, remove_modes_iterative
from xcorr.panel import ReturnPanel, standardize
from xcorr.spectrum import SYM_TOL, TRACE_TOL, correlation_matrix, eigendecompose
from xcorr.synth import MarketModel, generate


def _raw_panel(seed, n=9, t=1500):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    common = rng.standard_normal(t)
    rows = 0.6 * common + rng.standard_normal((n, t))
    rows *= rng.uniform(0.01, 3.0, size=(n, 1))
    return ReturnPanel(assets=[f"S{i}" for i in range(n)], returns=rows,
                       standardized=False, bars_per_day=50, dt_seconds=60.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permuting_assets_permutes_c_and_keeps_the_spectrum(seed):
    r = standardize(_raw_panel(seed))
    perm = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64))
                               ).permutation(r.n_assets)
    permuted = ReturnPanel(assets=[r.assets[k] for k in perm], returns=r.returns[perm],
                           standardized=True, bars_per_day=r.bars_per_day,
                           dt_seconds=r.dt_seconds)
    c, cp = correlation_matrix(r), correlation_matrix(permuted)
    assert np.abs(cp.values - c.values[np.ix_(perm, perm)]).max() < SYM_TOL
    lam, lam_p = eigendecompose(c).eigenvalues, eigendecompose(cp).eigenvalues
    assert np.abs(lam_p - lam).max() < TRACE_TOL


@pytest.mark.parametrize("scale", [1e-4, 0.37, 8.0, 1e5])
def test_scaling_a_raw_row_leaves_c_unchanged(scale):
    r = _raw_panel(3)
    rows = r.returns.copy()
    rows[4] *= scale
    scaled = ReturnPanel(assets=r.assets, returns=rows, standardized=False,
                         bars_per_day=r.bars_per_day, dt_seconds=r.dt_seconds)
    c = correlation_matrix(standardize(r)).values
    c_scaled = correlation_matrix(standardize(scaled)).values
    assert np.abs(c_scaled - c).max() < SYM_TOL


@pytest.mark.parametrize("from_original", [False, True])
def test_risk_identity_holds_on_the_residual_after_three_passes(from_original):
    r = generate(MarketModel(n_assets=12, t_length=900, bars_per_day=30,
                             market_loading=0.6, sector_spec=[(6, 0.5), (6, 0.4)], seed=8))
    residual = remove_modes_iterative(r, 3, from_original=from_original).panel
    s = eigendecompose(correlation_matrix(residual))
    modes = [i + 1 for i, lam in enumerate(s.eigenvalues) if lam > 1e-10]
    assert len(modes) >= residual.n_assets - 3
    for z in eigensignals(residual, s, modes):
        assert abs(z.series.var() - z.eigenvalue) / z.eigenvalue < RISK_TOL
