import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import xcorr.panel
import xcorr.spectrum
from xcorr.panel import ReturnPanel, standardize
from xcorr.spectrum import (
    TRACE_TOL,
    CorrelationMatrix,
    EigenSpectrum,
    MpBounds,
    correlation_matrix,
    eigendecompose,
    element_distribution,
    mp_bounds,
    overlap_fraction,
    windowed_element_distribution,
)

from conftest import RAW_3X16, make_standard_row


def _panel(rows, assets=None, standardized=False):
    rows = np.array(rows, dtype=float)
    if assets is None:
        assets = [f"S{i}" for i in range(rows.shape[0])]
    return ReturnPanel(
        assets=list(assets),
        returns=rows,
        standardized=standardized,
        bars_per_day=rows.shape[1],
        dt_seconds=60.0,
    )


def _iid_panel(n, t, seed):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return standardize(_panel(rng.standard_normal((n, t))))


class TestCorrelationMatrix:
    def test_identical_rows_give_unit_correlation(self):
        row = make_standard_row([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        c = correlation_matrix(_panel([row, row], standardized=True))
        assert np.allclose(c.values, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_negated_row_gives_minus_one(self):
        row = make_standard_row([0.3, -1.2, 0.8, 0.1, -0.7, 0.7])
        c = correlation_matrix(_panel([row, -row], standardized=True))
        assert np.allclose(c.values, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_matches_pairwise_pearson_loop(self, panel_3x16):
        c = correlation_matrix(panel_3x16)
        oracle = np.eye(3)
        x = RAW_3X16
        for i in range(3):
            for j in range(3):
                xi = x[i] - x[i].mean()
                xj = x[j] - x[j].mean()
                oracle[i, j] = (xi * xj).sum() / math.sqrt((xi * xi).sum() * (xj * xj).sum())
        assert np.allclose(c.values, oracle, atol=1e-12)

    def test_requires_standardized_panel(self):
        raw = _panel([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        with pytest.raises(ValueError, match="standardize"):
            correlation_matrix(raw)

    def test_diagonal_is_exactly_one(self, panel_4x64):
        c = correlation_matrix(panel_4x64)
        assert (np.diag(c.values) == 1.0).all()

    def test_q_property(self, panel_4x64):
        c = correlation_matrix(panel_4x64)
        assert c.q == 64 / 4

    def test_rejects_asymmetric_matrix(self):
        v = np.eye(3)
        v[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix(values=v, t_length=10)

    def test_rejects_bad_diagonal(self):
        v = np.eye(3) * 0.9
        with pytest.raises(ValueError, match="diagonal"):
            CorrelationMatrix(values=v, t_length=10)

    def test_rejects_out_of_range_entries(self):
        v = np.eye(2)
        v[0, 1] = v[1, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            CorrelationMatrix(values=v, t_length=10)

    def test_n_series_is_the_dimension(self):
        c = CorrelationMatrix(values=np.eye(3), t_length=12)
        assert (c.n_series, c.q) == (3, 4.0)
        with pytest.raises(TypeError):
            CorrelationMatrix(values=np.eye(3), n_series=4, t_length=12)

    def test_values_are_read_only(self, panel_3x16):
        c = correlation_matrix(panel_3x16)
        with pytest.raises(ValueError):
            c.values[0, 1] = 0.0


def _reference_correlation(r):
    """correlation_matrix as one untiled product, symmetrized by averaging."""
    m = r.returns
    c = (m @ m.T) / r.t_length
    c = 0.5 * (c + c.T)
    d = np.sqrt(np.diag(c))
    c = c / np.outer(d, d)
    np.fill_diagonal(c, 1.0)
    return c


def _factor_panel(n, order, t=600, seed=5):
    """A standardized one-factor panel of n assets from a C- or F-ordered
    input; the panel is C-ordered with the C input's bits either way."""
    rng = np.random.default_rng(seed + n)
    x = rng.standard_normal((n, t)) + 0.4 * rng.standard_normal(t)
    r = standardize(_panel(np.asarray(x, order=order)))
    assert r.returns.flags.c_contiguous
    assert np.array_equal(r.returns, standardize(_panel(np.ascontiguousarray(x))).returns)
    return r


def _with_helpers(monkeypatch, helpers, r):
    monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
    return correlation_matrix(r).values


@pytest.mark.parametrize("order", ["C", "F"])
class TestTiledGram:
    """C = M M^T / T over 200-row tiles shared out among the row-block threads."""

    @pytest.mark.parametrize("n", [3, 100, 200])
    def test_one_tile_is_the_untiled_product(self, order, n):
        r = _factor_panel(n, order)
        m = r.returns
        # numpy mirrors the triangle of m @ m.T exactly, so averaging with
        # the transpose changed no bit.
        assert np.array_equal(m @ m.T, (m @ m.T).T)
        assert np.array_equal(correlation_matrix(r).values, _reference_correlation(r))

    @pytest.mark.parametrize("n", [201, 400, 433])
    def test_many_tiles_match_the_untiled_product(self, order, n):
        r = _factor_panel(n, order)
        assert np.abs(correlation_matrix(r).values - _reference_correlation(r)).max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 200, 201, 433])
    def test_exactly_symmetric_unit_diagonal_and_trace(self, order, n):
        c = correlation_matrix(_factor_panel(n, order)).values
        assert np.array_equal(c, c.T)
        assert (np.diag(c) == 1.0).all()
        assert abs(np.trace(c) - n) < TRACE_TOL

    @pytest.mark.parametrize("n", [200, 433])
    def test_bits_do_not_depend_on_the_helper_count(self, monkeypatch, order, n):
        r = _factor_panel(n, order)
        serial = _with_helpers(monkeypatch, 0, r)
        for helpers in (1, 6):
            assert np.array_equal(_with_helpers(monkeypatch, helpers, r), serial)

    def test_bits_hold_under_contention(self, monkeypatch, order):
        # More threads than cores claiming the six tiles of N = 433,
        # switching as often as the interpreter can.
        r = _factor_panel(433, order, t=300)
        expect = _with_helpers(monkeypatch, 0, r)
        pool = ThreadPoolExecutor(6)
        monkeypatch.setattr(xcorr.panel, "_POOL", pool)
        monkeypatch.setattr(xcorr.panel, "_HELPERS", 6)
        failures = []

        def stress():
            for _ in range(20):
                if not np.array_equal(correlation_matrix(r).values, expect):
                    failures.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=stress, daemon=True)
            t.start()
            t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False, cancel_futures=True)
        assert not t.is_alive()
        assert failures == []


class TestEigendecompose:
    def test_rank_one_matrix(self):
        row = make_standard_row([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        c = correlation_matrix(_panel([row, row], standardized=True))
        s = eigendecompose(c)
        assert np.allclose(s.eigenvalues, [2.0, 0.0], atol=1e-12)
        assert np.allclose(np.abs(s.eigenvectors[:, 0]), [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_identity_matrix_gives_unit_eigenvalues(self):
        c = CorrelationMatrix(values=np.eye(5), t_length=50)
        s = eigendecompose(c)
        assert np.allclose(s.eigenvalues, np.ones(5), atol=1e-14)
        assert s.source_q == 10.0

    def test_matches_characteristic_polynomial_roots(self, panel_4x64):
        # Independent eigenvalue oracle: Faddeev-LeVerrier coefficients of the
        # characteristic polynomial, then np.roots on that polynomial.
        c = correlation_matrix(panel_4x64)
        s = eigendecompose(c)
        a = c.values
        coeffs = []
        m = a.copy()
        coeffs.append(-np.trace(m))
        for k in range(2, 5):
            m = a @ (m + coeffs[-1] * np.eye(4))
            coeffs.append(-np.trace(m) / k)
        roots = np.sort(np.roots([1.0] + coeffs).real)[::-1]
        assert np.abs(roots - s.eigenvalues).max() < 1e-8

    def test_eigenvalues_descending_and_trace_conserved(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        assert (np.diff(s.eigenvalues) <= 0).all()
        assert abs(s.eigenvalues.sum() - 4.0) < 1e-10

    def test_reconstruction(self, panel_4x64):
        c = correlation_matrix(panel_4x64)
        s = eigendecompose(c)
        recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.T
        assert np.abs(recon - c.values).max() < 1e-10

    def test_sign_convention(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        for i in range(4):
            col = s.eigenvectors[:, i]
            assert col[np.argmax(np.abs(col))] > 0

    def test_orthonormal_eigenvectors(self, panel_4x64):
        s = eigendecompose(correlation_matrix(panel_4x64))
        gram = s.eigenvectors.T @ s.eigenvectors
        assert np.abs(gram - np.eye(4)).max() < 1e-10


class TestEigenSpectrumValidation:
    def test_rejects_unsorted_eigenvalues(self):
        with pytest.raises(ValueError, match="descending"):
            EigenSpectrum(eigenvalues=np.array([1.0, 2.0]), eigenvectors=np.eye(2), source_q=2.0)

    def test_rejects_non_orthonormal_vectors(self):
        vecs = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            EigenSpectrum(eigenvalues=np.array([2.0, 1.0]), eigenvectors=vecs, source_q=2.0)

    def test_rejects_sign_violation(self):
        with pytest.raises(ValueError, match="sign"):
            EigenSpectrum(eigenvalues=np.array([2.0, 1.0]), eigenvectors=-np.eye(2), source_q=2.0)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="source_q"):
            EigenSpectrum(eigenvalues=np.array([1.0]), eigenvectors=np.eye(1), source_q=0.0)


class TestMpBounds:
    def test_square_aspect_ratio_spans_zero_to_four(self):
        b = mp_bounds(1.0)
        assert abs(b.lambda_min - 0.0) < 1e-12
        assert abs(b.lambda_max - 4.0) < 1e-12

    def test_frozen_values_q3(self):
        b = mp_bounds(3.0)
        assert abs(b.lambda_min - 0.17863279495408158) < 1e-12
        assert abs(b.lambda_max - 2.488033871712585) < 1e-12

    def test_frozen_values_q406(self):
        b = mp_bounds(406.0)
        assert abs(b.lambda_min - 0.9032047207900992) < 1e-12
        assert abs(b.lambda_max - 1.1017213875842853) < 1e-12
        assert abs(b.width - 0.19851666679418611) < 1e-12

    def test_width_is_four_over_sqrt_q(self):
        for q in (0.5, 1.0, 2.0, 10.0, 406.0):
            assert abs(mp_bounds(q).width - 4.0 / math.sqrt(q)) < 1e-12

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="positive"):
            mp_bounds(0.0)
        with pytest.raises(ValueError, match="positive"):
            mp_bounds(-3.0)

    def test_edges_are_derived_from_q(self):
        assert MpBounds(3.0) == mp_bounds(3.0)
        with pytest.raises(TypeError):
            MpBounds(q=3.0, lambda_min=0.2, lambda_max=2.5)


class TestOverlapFraction:
    def _spectrum(self, eigenvalues):
        n = len(eigenvalues)
        return EigenSpectrum(
            eigenvalues=np.array(eigenvalues, dtype=float),
            eigenvectors=np.eye(n),
            source_q=4.0,
        )

    def test_all_inside(self):
        s = self._spectrum([2.0, 1.0, 0.5])
        assert overlap_fraction(s, mp_bounds(4.0)) == 1.0

    def test_all_outside(self):
        s = self._spectrum([30.0, 20.0, 10.0])
        assert overlap_fraction(s, mp_bounds(4.0)) == 0.0

    def test_partial_overlap(self):
        # Q=4 bounds are [0.25, 2.25]: two of four values fall inside.
        s = self._spectrum([3.0, 1.0, 0.5, 0.1])
        assert overlap_fraction(s, mp_bounds(4.0)) == 0.5

    def test_bounds_are_inclusive(self):
        s = self._spectrum([4.0, 0.0])
        assert overlap_fraction(s, mp_bounds(1.0)) == 1.0


class TestElementDistribution:
    def test_identity_matrix_is_degenerate(self):
        c = CorrelationMatrix(values=np.eye(5), t_length=50)
        d = element_distribution(c)
        assert d.degenerate
        assert d.gaussian_sigma == 0.0
        assert math.isnan(d.tail_deviation)
        assert d.n_entries == 10

    def test_iid_width_scales_like_inverse_sqrt_t(self):
        p = _iid_panel(50, 10000, seed=7)
        d = element_distribution(correlation_matrix(p))
        assert not d.degenerate
        assert abs(d.gaussian_sigma - 1.0 / math.sqrt(10000)) < 0.1 / math.sqrt(10000)
        assert abs(d.gaussian_mu) < 3.0 / math.sqrt(10000 * d.n_entries) * 10

    def test_density_integrates_to_one(self):
        p = _iid_panel(20, 2000, seed=9)
        d = element_distribution(correlation_matrix(p))
        area = (d.densities * np.diff(d.bin_edges)).sum()
        assert abs(area - 1.0) < 1e-8

    def test_one_factor_mean_matches_coupling(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
        beta = math.sqrt(0.18 / 0.82)
        factor = rng.standard_normal(6000)
        rows = beta * factor + rng.standard_normal((50, 6000))
        p = standardize(_panel(rows))
        d = element_distribution(correlation_matrix(p))
        assert abs(d.gaussian_mu - 0.18) < 0.15 * 0.18

    def test_entry_count(self):
        p = _iid_panel(10, 500, seed=3)
        d = element_distribution(correlation_matrix(p))
        assert d.n_entries == 45

    def test_rejects_few_bins(self):
        p = _iid_panel(10, 500, seed=3)
        with pytest.raises(ValueError, match="10 bins"):
            element_distribution(correlation_matrix(p), n_bins=5)

    def test_rejects_tiny_matrix(self):
        c = CorrelationMatrix(values=np.eye(2), t_length=10)
        with pytest.raises(ValueError, match="3 series"):
            element_distribution(c)


class TestWindowedElementDistribution:
    def test_single_full_window_matches_plain_distribution(self, panel_3x16):
        # q_target = T/N makes the one window cover the whole panel.
        d_full = element_distribution(correlation_matrix(panel_3x16), n_bins=12)
        d_win = windowed_element_distribution(panel_3x16, q_target=16 / 3, n_bins=12)
        assert np.allclose(d_win.bin_edges, d_full.bin_edges, atol=1e-12)
        assert np.allclose(d_win.densities, d_full.densities, atol=1e-12)
        assert d_win.n_entries == d_full.n_entries == 3

    def test_short_windows_reproduce_low_q_width(self):
        p = _iid_panel(100, 9000, seed=13)
        d = windowed_element_distribution(p, q_target=3.0)
        assert d.n_entries == 30 * 100 * 99 // 2
        target = 1.0 / math.sqrt(300)
        assert abs(d.gaussian_sigma - target) < 0.1 * target

    def test_windowed_is_wider_than_full_panel(self):
        p = _iid_panel(100, 9000, seed=13)
        d_win = windowed_element_distribution(p, q_target=3.0)
        d_full = element_distribution(correlation_matrix(p))
        assert d_win.gaussian_sigma > 2.0 * d_full.gaussian_sigma

    def test_too_few_series_fails_before_any_window(self, monkeypatch):
        calls = []
        monkeypatch.setattr(xcorr.spectrum, "correlation_matrix",
                            lambda *a: calls.append(a) or correlation_matrix(*a))
        with pytest.raises(ValueError, match="3 series"):
            windowed_element_distribution(_iid_panel(2, 4000, seed=5), q_target=1.0)
        assert calls == []

    def test_rejects_nonpositive_q_target(self, panel_3x16):
        with pytest.raises(ValueError, match="positive"):
            windowed_element_distribution(panel_3x16, q_target=0.0)

    def test_rejects_when_no_full_window_fits(self, panel_3x16):
        with pytest.raises(ValueError, match="no full window"):
            windowed_element_distribution(panel_3x16, q_target=100.0)

    def test_rejects_window_shorter_than_two(self, panel_3x16):
        with pytest.raises(ValueError, match="too short"):
            windowed_element_distribution(panel_3x16, q_target=0.1)

    @pytest.mark.parametrize("n, t, q_target", [
        (3, 16, 1.0), (7, 1003, 3.0), (37, 5003, 2.0), (17, 999, 1.1), (100, 10_000, 2.0),
    ], ids=["3x16-w3", "7x1003-w21", "37x5003-w74", "17x999-w19", "100x10000-w200"])
    @pytest.mark.parametrize("standardized", [False, True], ids=["raw", "standardized"])
    def test_each_window_has_the_bits_of_a_standardized_copy(self, monkeypatch, n, t, q_target,
                                                            standardized):
        # Reference: copy each window into a raw panel, then standardize it.
        rng = np.random.Generator(np.random.Philox(key=np.array([n, t], dtype=np.uint64)))
        r = _panel(rng.standard_normal((n, t)) * rng.uniform(0.5, 3.0, (n, 1)) + 0.1)
        if standardized:
            r = standardize(r)
        window = int(round(q_target * n))
        want = [standardize(replace(r, returns=r.returns[:, lo:lo + window], standardized=False))
                for lo in range(0, t - window + 1, window)]
        seen = []
        monkeypatch.setattr(xcorr.spectrum, "correlation_matrix",
                            lambda p: seen.append(p) or correlation_matrix(p))
        got = windowed_element_distribution(r, q_target, n_bins=20)
        assert len(seen) == len(want) == t // window
        for p, ref in zip(seen, want):
            assert p.standardized and p.assets == r.assets
            assert np.array_equal(p.returns, ref.returns)
        iu = np.triu_indices(n, k=1)
        ref = xcorr.spectrum._distribution_from_entries(
            np.concatenate([correlation_matrix(p).values[iu] for p in want]), 20)
        assert np.array_equal(got.bin_edges, ref.bin_edges)
        assert np.array_equal(got.densities, ref.densities)
        assert (got.gaussian_mu, got.gaussian_sigma) == (ref.gaussian_mu, ref.gaussian_sigma)
        assert np.array_equal(got.tail_deviation, ref.tail_deviation, equal_nan=True)

    def test_a_flat_row_in_one_window_is_named(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([5, 1], dtype=np.uint64)))
        rows = rng.standard_normal((4, 40))
        rows[2, 20:30] = 0.25  # flat in the third window of 10 bars only
        r = standardize(_panel(rows, assets=["A", "B", "X", "D"]))
        with pytest.raises(ValueError, match="cannot standardize zero-variance series 'X'"):
            windowed_element_distribution(r, q_target=2.5)
