import math
import warnings

import numpy as np
import pytest

import xcorr.modes
import xcorr.panel
from xcorr.modes import (
    Eigensignal,
    ResidualPanel,
    eigensignals,
    remove_mode,
    remove_modes_iterative,
)
from xcorr.panel import ReturnPanel, standardize
from xcorr.spectrum import correlation_matrix, eigendecompose, mp_bounds, overlap_fraction

from conftest import make_standard_row


def _panel(rows, standardized=False, bpd=None):
    rows = np.array(rows, dtype=float)
    return ReturnPanel(
        assets=[f"S{i}" for i in range(rows.shape[0])],
        returns=rows,
        standardized=standardized,
        bars_per_day=bpd or rows.shape[1],
        dt_seconds=60.0,
    )


def _two_sector_panel(seed=31, n=60, t=9000):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    market = rng.standard_normal(t)
    sectors = rng.standard_normal((2, t))
    rows = np.empty((n, t))
    for k in range(n):
        rows[k] = 0.4 * market + 0.45 * sectors[k // (n // 2)] + rng.standard_normal(t)
    return standardize(_panel(rows, bpd=100))


class TestEigensignal:
    def test_risk_identity_enforced(self):
        series = make_standard_row([1.0, 2.0, -1.5, 0.5, -2.0, 0.0])
        Eigensignal(index=1, series=series, eigenvalue=1.0)
        with pytest.raises(ValueError, match="risk identity"):
            Eigensignal(index=1, series=series, eigenvalue=1.5)

    def test_index_is_one_based(self):
        series = make_standard_row([1.0, -1.0, 2.0, -2.0])
        with pytest.raises(ValueError, match="1-based"):
            Eigensignal(index=0, series=series, eigenvalue=1.0)

    def test_zero_eigenvalue_requires_flat_series(self):
        Eigensignal(index=2, series=np.zeros(8), eigenvalue=0.0)
        with pytest.raises(ValueError, match="near-zero eigenvalue"):
            Eigensignal(index=2, series=make_standard_row([1.0, -1.0, 1.0, -1.0]), eigenvalue=0.0)

    def test_rejects_two_dimensional_series(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Eigensignal(index=1, series=np.zeros((2, 4)), eigenvalue=0.0)


class TestEigensignals:
    def test_identical_rows_market_mode(self):
        row = make_standard_row([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        p = _panel([row, row], standardized=True)
        s = eigendecompose(correlation_matrix(p))
        (z,) = eigensignals(p, s, [1])
        assert z.index == 1
        assert np.allclose(z.series, math.sqrt(2.0) * row, atol=1e-12)
        assert abs(z.series.var() - 2.0) < 1e-12

    def test_variance_equals_eigenvalue_for_every_mode(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        for z in eigensignals(panel_4x64, s, [1, 2, 3, 4]):
            lam = s.eigenvalues[z.index - 1]
            assert abs(z.series.var() - lam) <= 1e-10 * max(lam, 1.0)

    def test_cross_orthogonality(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        zs = eigensignals(panel_4x64, s, [1, 2, 3, 4])
        for i in range(4):
            for j in range(i + 1, 4):
                cov = (zs[i].series * zs[j].series).mean()
                assert abs(cov) < 1e-8

    def test_requires_standardized_panel(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        raw = _panel(np.arange(12.0).reshape(3, 4) ** 1.5)
        with pytest.raises(ValueError, match="standardized"):
            eigensignals(raw, s, [1])

    def test_rejects_mismatched_spectrum(self, panel_3x16, panel_4x64):
        s4 = eigendecompose(correlation_matrix(panel_4x64))
        with pytest.raises(ValueError, match="4 series"):
            eigensignals(panel_3x16, s4, [1])

    def test_rejects_out_of_range_index(self, panel_3x16):
        s = eigendecompose(correlation_matrix(panel_3x16))
        with pytest.raises(ValueError, match="outside 1..3"):
            eigensignals(panel_3x16, s, [4])
        with pytest.raises(ValueError, match="outside 1..3"):
            eigensignals(panel_3x16, s, [0])


class TestRemoveMode:
    def test_betas_equal_top_eigenvector_for_own_panel(self, panel_4x64):
        # Regressing each row on z_1 reproduces x_1 exactly: beta_k =
        # cov(g_k, z_1)/var(z_1) = (C x_1)_k / lambda_1 = x_1^(k).
        s = eigendecompose(correlation_matrix(panel_4x64))
        (z,) = eigensignals(panel_4x64, s, [1])
        res = remove_mode(panel_4x64, z)
        assert np.allclose(res.betas[0], s.eigenvectors[:, 0], atol=1e-10)
        assert np.allclose(res.alphas[0], 0.0, atol=1e-10)

    def test_matches_polyfit_per_row(self, panel_3x16):
        s = eigendecompose(correlation_matrix(panel_3x16))
        (z,) = eigensignals(panel_3x16, s, [1])
        res = remove_mode(panel_3x16, z)
        for k in range(3):
            slope, intercept = np.polyfit(z.series, panel_3x16.returns[k], 1)
            assert abs(res.betas[0][k] - slope) < 1e-10
            assert abs(res.alphas[0][k] - intercept) < 1e-10

    def test_residuals_orthogonal_to_removed_mode(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        (z,) = eigensignals(panel_4x64, s, [1])
        res = remove_mode(panel_4x64, z)
        dots = res.panel.returns @ z.series / panel_4x64.t_length
        assert np.abs(dots).max() < 1e-8

    def test_residual_panel_is_standardized(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        (z,) = eigensignals(panel_4x64, s, [1])
        res = remove_mode(panel_4x64, z)
        assert res.panel.standardized
        assert np.allclose(res.panel.returns.var(axis=1), 1.0, atol=1e-10)

    def test_perfectly_explained_asset_is_dropped(self):
        u = make_standard_row([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        v = make_standard_row([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        p = _panel([u, v], standardized=True)
        z = Eigensignal(index=1, series=u, eigenvalue=1.0)
        with pytest.warns(UserWarning, match="perfectly explained"):
            res = remove_mode(p, z)
        assert res.dropped_assets == ["S0"]
        assert res.panel.assets == ["S1"]
        # v is orthogonal to u, so its slope is zero and the row survives as is.
        assert abs(res.betas[0][1]) < 1e-12
        assert np.allclose(res.panel.returns[0], v, atol=1e-12)

    def test_all_assets_explained_raises(self):
        u = make_standard_row([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        p = _panel([u, -u], standardized=True)
        z = Eigensignal(index=1, series=u, eigenvalue=1.0)
        with pytest.raises(ValueError, match="all assets"), pytest.warns(UserWarning):
            remove_mode(p, z)

    def test_zero_variance_regressor_rejected(self, panel_3x16):
        z = Eigensignal(index=1, series=np.zeros(16), eigenvalue=0.0)
        with pytest.raises(ValueError, match="zero-variance regressor"):
            remove_mode(panel_3x16, z)

    def test_length_mismatch_rejected(self, panel_3x16):
        z = Eigensignal(index=1, series=make_standard_row([1.0, -1.0, 2.0, -2.0]), eigenvalue=1.0)
        with pytest.raises(ValueError, match="length"):
            remove_mode(panel_3x16, z)


def _reference_regress_out(r, z):
    """The whole-panel expressions of one removal pass, kept as the bit-for-bit
    reference of its row-block form: residual rows, alphas, betas, dropped."""
    series = z.series
    z_mean = series.mean()
    zc = series - z_mean
    m = r.returns
    betas = (m @ zc) / (zc @ zc)
    alphas = m.mean(axis=1) - betas * z_mean
    resid = m - alphas[:, None] - betas[:, None] * series[None, :]
    res_var = resid.var(axis=1)
    keep = res_var >= xcorr.modes.RESIDUAL_VAR_TOL
    kept = resid[keep]
    dropped = [a for a, k in zip(r.assets, keep) if not k]
    return kept / np.sqrt(res_var[keep])[:, None], alphas, betas, dropped


def _factor_panel(order, n=60, t=9000):
    """A standardized one-factor panel built from an input in memory layout
    `order`; the panel holds the C input's bits in C order either way.  Its
    60 rows are row blocks of 16, 16, 16 and 12; at this shape a threaded BLAS
    can give a 16-row block's gemv other last bits than the whole panel's."""
    rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
    rows = 0.5 * rng.standard_normal(t) + rng.standard_normal((n, t))
    s = standardize(_panel(rows, bpd=100))
    p = _panel(np.array(s.returns, order=order), standardized=True, bpd=100)
    assert p.returns.flags.c_contiguous
    assert np.array_equal(p.returns, s.returns)
    return p


def _unit_regressor(t=9000):
    rng = np.random.Generator(np.random.Philox(key=np.array([18, 0], dtype=np.uint64)))
    u = make_standard_row(rng.standard_normal(t))
    return u, Eigensignal(index=1, series=u, eigenvalue=1.0)


def _recorded_pass(r, z):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = xcorr.modes._regress_out(r, z)
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize("order", ["C", "F"])
class TestRowBlockRemovalPass:
    """One removal pass over row blocks gives the bits, warnings and errors of
    the whole-panel expressions, whatever the input layout and helper count."""

    def test_matches_whole_panel_expressions(self, helpers, order):
        p = _factor_panel(order)
        (z,) = eigensignals(p, eigendecompose(correlation_matrix(p)), [1])
        (out, alphas, betas, dropped), caught = _recorded_pass(p, z)
        ref, ref_alphas, ref_betas, ref_dropped = _reference_regress_out(p, z)
        assert np.array_equal(out.returns, ref)
        assert np.array_equal(alphas, ref_alphas)
        assert np.array_equal(betas, ref_betas)
        assert dropped == ref_dropped == [] and caught == []
        assert out.assets == p.assets
        assert out.returns.flags.c_contiguous

    def test_rows_dropped_in_blocks_1_and_3(self, helpers, order):
        u, z = _unit_regressor()
        rows = np.array(_factor_panel("C").returns)
        rows[20], rows[50] = u, -u
        p = _panel(np.array(rows, order=order), standardized=True, bpd=100)
        assert p.returns.flags.c_contiguous
        (out, alphas, betas, dropped), caught = _recorded_pass(p, z)
        ref, ref_alphas, ref_betas, ref_dropped = _reference_regress_out(p, z)
        assert np.array_equal(out.returns, ref)
        assert np.array_equal(alphas, ref_alphas)
        assert np.array_equal(betas, ref_betas)
        assert dropped == ref_dropped == ["S20", "S50"]
        assert caught == [f"asset {a} perfectly explained by removed mode; dropped"
                          for a in ("S20", "S50")]
        assert out.assets == [a for a in p.assets if a not in ("S20", "S50")]
        assert out.returns.flags.c_contiguous

    def test_all_dropped_error_follows_every_warning(self, helpers, order):
        u, z = _unit_regressor()
        rows = np.array([u if k % 3 else -u for k in range(40)], order=order)
        p = _panel(rows, standardized=True, bpd=100)
        assert p.returns.flags.c_contiguous
        assert _reference_regress_out(p, z)[3] == p.assets
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^all assets perfectly explained"):
                xcorr.modes._regress_out(p, z)
        assert [str(w.message) for w in caught] == [
            f"asset S{k} perfectly explained by removed mode; dropped" for k in range(40)
        ]

    @pytest.mark.parametrize("from_original", [False, True])
    def test_three_passes_match_the_reference_chain(self, helpers, order, from_original):
        p = _factor_panel(order)
        res = remove_modes_iterative(p, 3, from_original=from_original)
        current = p
        zs = eigensignals(p, eigendecompose(correlation_matrix(p)), [1, 2, 3])
        for k in range(3):
            if from_original:
                z = zs[k]
            else:
                (z,) = eigensignals(current, eigendecompose(correlation_matrix(current)), [1])
            ref, ref_alphas, ref_betas, _ = _reference_regress_out(current, z)
            assert np.array_equal(res.alphas[k], ref_alphas)
            assert np.array_equal(res.betas[k], ref_betas)
            current = _panel(ref, standardized=True, bpd=100)
        assert np.array_equal(res.panel.returns, current.returns)


class TestRemoveModesIterative:
    def test_count_one_matches_single_removal(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        (z,) = eigensignals(panel_4x64, s, [1])
        one = remove_mode(panel_4x64, z)
        it = remove_modes_iterative(panel_4x64, 1)
        assert it.removed_modes == [1]
        assert np.allclose(it.panel.returns, one.panel.returns, atol=1e-12)
        assert it.pass_assets == [["A", "B", "C", "D"]]

    def test_one_factor_residual_bulk_matches_random_band(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([21, 0], dtype=np.uint64)))
        factor = rng.standard_normal(12000)
        rows = 0.5 * factor + rng.standard_normal((120, 12000))
        p = standardize(_panel(rows, bpd=100))
        res = remove_modes_iterative(p, 1)
        s = eigendecompose(correlation_matrix(res.panel))
        b = mp_bounds(res.panel.t_length / res.panel.n_assets)
        assert overlap_fraction(s, b) >= 0.95
        # One exact null direction appears: the regressor itself.
        assert s.eigenvalues[-1] < 1e-10
        assert s.eigenvalues[-2] > 1e-6

    def test_two_sector_panel_peels_modes_in_order(self):
        p = _two_sector_panel()
        b = mp_bounds(p.t_length / p.n_assets)
        s0 = eigendecompose(correlation_matrix(p))
        assert (s0.eigenvalues > b.lambda_max).sum() == 2

        # Market removal alone leaves the sector mode standing above the bulk.
        s1 = eigendecompose(correlation_matrix(remove_modes_iterative(p, 1).panel))
        assert s1.eigenvalues[0] > 3.0 * b.lambda_max
        assert (s1.eigenvalues > b.lambda_max).sum() >= 1

        # A second pass absorbs it: no residual eigenvalue far above the band.
        res2 = remove_modes_iterative(p, 2)
        s2 = eigendecompose(correlation_matrix(res2.panel))
        assert s2.eigenvalues[0] < 1.5 * b.lambda_max
        assert res2.removed_modes == [1, 2]
        # Each pass leaves one exact null direction behind.
        assert (s2.eigenvalues < 1e-10).sum() == 2

    def test_top_eigenvalue_decreases_over_passes(self):
        p = _two_sector_panel()
        lam1 = [eigendecompose(correlation_matrix(p)).eigenvalues[0]]
        for count in (1, 2):
            res = remove_modes_iterative(p, count)
            lam1.append(eigendecompose(correlation_matrix(res.panel)).eigenvalues[0])
        assert lam1[0] > lam1[1] > lam1[2]

    def test_trace_is_conserved_by_restandardization(self, panel_4x64):
        res = remove_modes_iterative(panel_4x64, 2)
        s = eigendecompose(correlation_matrix(res.panel))
        assert abs(s.eigenvalues.sum() - res.panel.n_assets) < 1e-8

    def test_from_original_uses_initial_spectrum(self, panel_4x64):
        res = remove_modes_iterative(panel_4x64, 2, from_original=True)
        assert res.removed_modes == [1, 2]
        assert res.panel.standardized
        s0 = eigendecompose(correlation_matrix(panel_4x64))
        zs = eigensignals(panel_4x64, s0, [1, 2])
        # Pass-one coefficients are the plain single-mode removal of z_1.
        assert np.allclose(res.betas[0], remove_mode(panel_4x64, zs[0]).betas[0], atol=1e-12)

    def test_standardizes_raw_input(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
        raw = _panel(3.0 * rng.standard_normal((5, 200)) + 1.0)
        res = remove_modes_iterative(raw, 1)
        assert res.panel.standardized

    def test_rejects_nonpositive_count(self, panel_4x64):
        with pytest.raises(ValueError, match="count"):
            remove_modes_iterative(panel_4x64, 0)

    @pytest.mark.parametrize("from_original", [False, True])
    @pytest.mark.parametrize("count", [5, 10**11])
    def test_rejects_count_above_n_before_any_pass(self, panel_4x64, monkeypatch,
                                                   from_original, count):
        calls = []
        monkeypatch.setattr(xcorr.modes, "correlation_matrix", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=f"count must be at most .* N=4, got {count}"):
            remove_modes_iterative(panel_4x64, count, from_original=from_original)
        assert calls == []

    @pytest.mark.parametrize("from_original", [False, True])
    def test_spectra_are_the_spectra_entering_each_pass(self, from_original):
        p = _two_sector_panel()
        res = remove_modes_iterative(p, 3, from_original=from_original)
        assert len(res.spectra) == 3
        for count, s in enumerate(res.spectra):
            entering = p if count == 0 else remove_modes_iterative(
                p, count, from_original=from_original).panel
            ref = eigendecompose(correlation_matrix(entering))
            assert np.array_equal(s.eigenvalues, ref.eigenvalues)
            assert np.array_equal(s.eigenvectors, ref.eigenvectors)
            assert s.source_q == ref.source_q
            assert s.n_series == len(res.pass_assets[count])

    def test_remove_mode_records_input_spectrum(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        (z,) = eigensignals(panel_4x64, s, [1])
        (recorded,) = remove_mode(panel_4x64, z).spectra
        assert np.array_equal(recorded.eigenvalues, s.eigenvalues)
        assert np.array_equal(recorded.eigenvectors, s.eigenvectors)

    def test_to_dict_records_passes(self, panel_4x64):
        res = remove_modes_iterative(panel_4x64, 2)
        d = res.to_dict()
        assert d["removed_modes"] == [1, 2]
        assert len(d["passes"]) == 2
        assert d["passes"][0]["assets"] == ["A", "B", "C", "D"]
        assert len(d["passes"][1]["betas"]) == 4
        assert d["dropped_assets"] == []
        assert "spectra" not in d


def _rank_two_panel(n=20, t=3000):
    """Every row a mix of the same two factors: the first removal pass leaves
    every residual on one line, which the second pass explains exactly."""
    rng = np.random.Generator(np.random.Philox(key=np.array([41, 0], dtype=np.uint64)))
    factors = rng.standard_normal((2, t))
    return standardize(_panel(rng.uniform(0.5, 2.0, (n, 2)) @ factors, bpd=100))


class TestRemovalBuffers:
    """Each pass after the first overwrites the residual array of the pass
    before it; the caller's panel is never written."""

    @pytest.mark.parametrize("from_original", [False, True])
    def test_caller_panel_keeps_its_bytes(self, from_original):
        p = _two_sector_panel()
        before = p.returns.tobytes()
        res = remove_modes_iterative(p, 3, from_original=from_original)
        assert p.returns.tobytes() == before
        assert not p.returns.flags.writeable
        assert not res.panel.returns.flags.writeable

    @pytest.mark.parametrize("from_original", [False, True])
    def test_caller_panel_keeps_its_bytes_when_every_asset_is_dropped(self, from_original):
        p = _rank_two_panel()
        before = p.returns.tobytes()
        with pytest.raises(ValueError, match="^all assets perfectly explained"):
            with pytest.warns(UserWarning, match="perfectly explained"):
                remove_modes_iterative(p, 3, from_original=from_original)
        assert p.returns.tobytes() == before
        assert not p.returns.flags.writeable

    @pytest.mark.parametrize("from_original", [False, True])
    def test_bits_do_not_depend_on_helper_count(self, monkeypatch, from_original):
        p = _two_sector_panel()
        spec = eigendecompose(correlation_matrix(p))
        runs = []
        for helpers in (0, 1, 3):
            monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
            res = remove_modes_iterative(p, 3, from_original=from_original)
            zs = eigensignals(p, spec, range(1, p.n_assets + 1))
            runs.append([res.panel.returns, *res.alphas, *res.betas, *(z.series for z in zs)])
        assert len(runs[0]) == 1 + 3 + 3 + p.n_assets
        for run in runs[1:]:
            assert all(np.array_equal(got, expect) for got, expect in zip(run, runs[0]))


class TestRegressionScratch:
    """`_regress_out` takes each row block through one scratch array, with the
    bits of the whole-panel expressions, ``e.var(axis=1)`` among them."""

    @staticmethod
    def reference(m, series):
        z_mean = series.mean()
        zc = series - z_mean
        betas = (m @ zc) / (zc @ zc)
        alphas = m.mean(axis=1) - betas * z_mean
        e = m - alphas[:, None]
        e -= betas[:, None] * series
        res_var = e.var(axis=1)
        return e / np.sqrt(res_var)[:, None], res_var, alphas, betas

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("helpers", [0, 1, 3])
    def test_residuals_and_variances_match_numpy_var(self, monkeypatch, helpers, in_place):
        # 60 assets: row blocks of 16, 16, 16 and 12.
        p = _two_sector_panel()
        (z,) = eigensignals(p, eigendecompose(correlation_matrix(p)), [1])
        resid, res_var, alphas, betas = self.reference(p.returns, z.series)
        assert (res_var >= xcorr.modes.RESIDUAL_VAR_TOL).all()
        monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
        buf = None
        if in_place:  # the residuals overwrite the panel's own buffer, made writable
            buf = p.returns.copy()
            p = ReturnPanel(p.assets, xcorr.panel._frozen(buf), True, 100, 60.0)
            buf.setflags(write=True)
        out, a, b, dropped = xcorr.modes._regress_out(p, z, buf)
        assert not in_place or out.returns is buf
        assert dropped == []
        assert np.array_equal(out.returns, resid)
        assert np.array_equal(a, alphas) and np.array_equal(b, betas)


class TestResidualPanelValidation:
    def test_bookkeeping_lengths_must_agree(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        one_pass = dict(
            panel=panel_4x64,
            removed_modes=[1],
            alphas=[np.zeros(4)],
            betas=[np.zeros(4)],
            pass_assets=[["A", "B", "C", "D"]],
            dropped_assets=[],
            spectra=[s],
        )
        ResidualPanel(**one_pass)
        for key in ("removed_modes", "alphas", "betas", "pass_assets", "spectra"):
            bad = dict(one_pass, **{key: one_pass[key] * 2})
            with pytest.raises(ValueError, match="equal length"):
                ResidualPanel(**bad)
