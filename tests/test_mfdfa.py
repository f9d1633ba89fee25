import math

import numpy as np
import pytest

import xcorr.mfdfa
from xcorr.mfdfa import (
    FluctuationSurface,
    MfdfaConfig,
    SingularitySpectrum,
    analyze,
    average_spectra,
    binomial_cascade,
    default_q_grid,
    default_scales,
    fluctuation,
    fluctuation_surface,
    hurst_exponents,
    profile,
    segment_variances,
    singularity_spectrum,
)
from xcorr.modes import eigensignals
from xcorr.spectrum import correlation_matrix, eigendecompose
from xcorr.synth import generate, preset


def _white_noise(t=8000, seed=55):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return rng.standard_normal(t)


class TestProfile:
    def test_alternating_series(self):
        assert np.array_equal(profile([1.0, -1.0, 1.0, -1.0]), [1.0, 0.0, 1.0, 0.0])

    def test_constant_series_gives_zeros(self):
        assert np.array_equal(profile([3.0] * 6), np.zeros(6))

    def test_matches_prefix_sum_loop(self):
        x = _white_noise(64)
        y = profile(x)
        total = 0.0
        mean = x.mean()
        for i in range(64):
            total += x[i] - mean
            assert abs(y[i] - total) < 1e-10

    def test_last_value_returns_to_zero(self):
        y = profile(_white_noise(1000))
        assert abs(y[-1]) < 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="1-D"):
            profile(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="at least 2"):
            profile([1.0])
        with pytest.raises(ValueError, match="non-finite"):
            profile([1.0, np.nan, 2.0])


class TestSegmentVariances:
    def test_polynomial_profile_detrends_to_zero(self):
        # A globally quadratic profile is removed exactly by order-2 fits.
        idx = np.arange(64.0)
        y = 0.3 * idx**2 - 4.0 * idx + 7.0
        v = segment_variances(y, 8, l=2)
        assert v.shape == (16,)
        assert np.abs(v).max() < 1e-12

    def test_exact_division_duplicates_forward_segments(self):
        y = profile(_white_noise(96))
        v = segment_variances(y, 8, l=2)
        m = 96 // 8
        assert np.allclose(np.sort(v[:m]), np.sort(v[m:]), atol=1e-10)

    def test_remainder_covered_from_both_ends(self):
        y = profile(_white_noise(100))
        v = segment_variances(y, 8, l=2)
        assert v.size == 2 * (100 // 8)

    def test_matches_normal_equation_oracle(self):
        # Independent least squares: uncentered Vandermonde in the raw index,
        # solved via the normal equations (same column space, same residual).
        y = profile(_white_noise(128))
        n, l = 32, 2
        v = segment_variances(y, n, l)
        m = 128 // n
        t = np.arange(n, dtype=float)
        design = np.vander(t, l + 1, increasing=True)
        gram_inv = np.linalg.inv(design.T @ design)
        for s in range(m):
            seg = y[s * n : (s + 1) * n]
            coef = gram_inv @ (design.T @ seg)
            resid = seg - design @ coef
            assert abs(v[s] - (resid**2).mean()) < 1e-10

    def test_rejects_underdetermined_scale(self):
        y = profile(_white_noise(64))
        with pytest.raises(ValueError, match="under-determined"):
            segment_variances(y, 3, l=2)

    def test_rejects_scale_above_quarter_length(self):
        y = profile(_white_noise(64))
        with pytest.raises(ValueError, match="4 segments"):
            segment_variances(y, 17, l=2)

    def test_rejects_bad_order(self):
        y = profile(_white_noise(64))
        with pytest.raises(ValueError, match="order"):
            segment_variances(y, 8, l=0)


class TestDetrendBasis:
    def test_cached_basis_gives_the_bits_of_the_uncached_expression(self, monkeypatch):
        x = _white_noise(4000)
        cfg = MfdfaConfig(detrend_order=3)
        cached = [analyze(x), analyze(x, cfg)]

        def uncached(n, l):
            basis, _ = np.linalg.qr(np.vander(np.linspace(-1.0, 1.0, n), l + 1,
                                              increasing=True))
            return basis

        monkeypatch.setattr(xcorr.mfdfa, "_detrend_basis", uncached)
        fresh = [analyze(x), analyze(x, cfg)]
        for (s0, p0), (s1, p1) in zip(cached, fresh):
            assert np.array_equal(s0.values, s1.values)
            for key in ("h", "alpha", "f"):
                assert np.array_equal(getattr(p0, key), getattr(p1, key)), key

    def test_basis_is_shared_and_read_only(self):
        b = xcorr.mfdfa._detrend_basis(40, 2)
        assert b is xcorr.mfdfa._detrend_basis(40, 2)
        assert not b.flags.writeable
        assert b.shape == (40, 3)


class TestFluctuation:
    def test_equal_variances_give_their_root_for_all_q(self):
        v = [2.25, 2.25, 2.25, 2.25]
        for q in (-4.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            assert abs(fluctuation(v, [q])[0] - 1.5) < 1e-12

    def test_q_two_is_root_mean_square(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert abs(fluctuation(v, [2.0])[0] - math.sqrt(v.mean())) < 1e-12

    def test_frozen_two_segment_values(self):
        v = [1.0, 4.0]
        assert abs(fluctuation(v, [-2.0])[0] - 1.2649110640673518) < 1e-12
        assert abs(fluctuation(v, [0.0])[0] - 1.414213562373095) < 1e-12
        assert abs(fluctuation(v, [2.0])[0] - 1.5811388300841898) < 1e-12

    def test_monotone_in_q(self):
        v = [1.0, 4.0]
        assert fluctuation(v, [-2.0])[0] < fluctuation(v, [0.0])[0] < fluctuation(v, [2.0])[0]

    def test_zero_variance_diverges_for_nonpositive_q(self):
        with pytest.raises(ValueError, match="raise the minimum scale"):
            fluctuation([0.0, 1.0], [-1.0])
        with pytest.raises(ValueError, match="raise the minimum scale"):
            fluctuation([0.0, 1.0], [0.0])

    def test_all_zero_variances_rejected(self):
        with pytest.raises(ValueError, match="all segment variances are zero"):
            fluctuation([0.0, 0.0], [2.0])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fluctuation([-1.0, 1.0], [2.0])

    def test_scalar_q_rejected(self):
        with pytest.raises(ValueError, match="q_grid"):
            fluctuation([1.0, 4.0], 2.0)


class TestConfig:
    def test_default_q_grid_hits_zero_exactly(self):
        q = default_q_grid()
        assert q.size == 41
        assert 0.0 in q
        assert q[0] == -4.0 and q[-1] == 4.0

    def test_default_scales_span(self):
        s = default_scales(40000)
        assert s[0] == 16
        assert s[-1] == 2000
        assert (np.diff(s) > 0).all()

    def test_rejects_small_nonzero_q(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            MfdfaConfig(q_grid=np.array([-2.0, -0.05, 0.0, 1.0, 2.0]))

    def test_rejects_short_or_unsorted_q(self):
        with pytest.raises(ValueError, match="at least 5"):
            MfdfaConfig(q_grid=np.array([-2.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="increasing"):
            MfdfaConfig(q_grid=np.array([2.0, 1.0, 0.0, -1.0, -2.0]))

    def test_rejects_scale_below_fit_window(self):
        with pytest.raises(ValueError, match="detrend_order"):
            MfdfaConfig(detrend_order=3, scale_grid=np.array([4, 8, 16, 32, 64]))

    def test_resolved_scales_enforces_quarter_length(self):
        cfg = MfdfaConfig(scale_grid=np.array([16, 32, 64, 128, 256]))
        cfg.resolved_scales(1024)
        with pytest.raises(ValueError, match="length/4"):
            cfg.resolved_scales(1000)

    def test_resolved_scales_needs_five_scales(self):
        cfg = MfdfaConfig(scale_grid=np.array([16, 32, 64, 128]))
        with pytest.raises(ValueError, match="at least 5 scales"):
            cfg.resolved_scales(4000)
        with pytest.raises(ValueError, match="at least 5 scales"):
            analyze(_white_noise(4000), cfg)

    def test_short_series_has_no_default_scales(self):
        with pytest.raises(ValueError, match="too short"):
            default_scales(300)


class TestHurstExponents:
    def test_manufactured_power_law(self):
        scales = np.array([16, 32, 64, 128, 256, 512])
        q = default_q_grid()
        values = np.tile(scales.astype(float) ** 0.7, (q.size, 1))
        surf = FluctuationSurface(q_grid=q, scales=scales, values=values)
        h = hurst_exponents(surf)
        assert np.abs(h - 0.7).max() < 1e-10
        assert surf.fit_residual.max() < 1e-10

    def test_amplitude_rescaling_leaves_h_unchanged(self):
        x = _white_noise(4000)
        h1 = hurst_exponents(fluctuation_surface(x))
        h2 = hurst_exponents(fluctuation_surface(3.7 * x))
        assert np.abs(h1 - h2).max() < 1e-10

    def test_white_noise_h2_near_half(self):
        surf, _ = analyze(_white_noise(8000))
        i = int(np.argmin(np.abs(surf.q_grid - 2.0)))
        assert abs(surf.h[i] - 0.5) < 0.05

    def test_time_reversal_symmetry(self):
        x = _white_noise(8000)
        sf, _ = analyze(x)
        sb, _ = analyze(x[::-1].copy())
        i = int(np.argmin(np.abs(sf.q_grid - 2.0)))
        assert abs(sf.h[i] - sb.h[i]) < 0.02


class TestSingularitySpectrum:
    def test_constant_h_collapses_to_a_point(self):
        q = default_q_grid()
        spec = singularity_spectrum(np.full(q.size, 0.6), q)
        assert np.allclose(spec.alpha, 0.6, atol=1e-12)
        assert np.allclose(spec.f, 1.0, atol=1e-12)
        assert spec.width < 1e-12
        assert spec.alpha_monotone and spec.f_within_bound

    def test_linear_h_gives_parabolic_f(self):
        # h = a - b q: alpha = a - 2 b q, f = 1 - b q^2 (exact for central
        # differences on a uniform grid).
        q = default_q_grid()
        a, b = 0.8, 0.05
        spec = singularity_spectrum(a - b * q, q)
        assert np.allclose(spec.alpha, a - 2 * b * q, atol=1e-12)
        assert np.allclose(spec.f, 1.0 - b * q**2, atol=1e-12)
        assert abs(spec.width - 2 * b * (q[-1] - q[0])) < 1e-12

    def test_rising_h_sets_warning_flags(self):
        q = default_q_grid()
        with pytest.warns(UserWarning):
            spec = singularity_spectrum(0.5 + 0.05 * q, q)
        assert not spec.alpha_monotone
        assert not spec.f_within_bound
        assert spec.f.max() > 1.0 + 1e-6

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            singularity_spectrum(np.zeros(4), np.arange(5.0))

    def test_derived_fields(self):
        q = np.arange(5.0)
        ok = SingularitySpectrum(q=q, h=q, alpha=np.array([0.9, 0.8, 0.6, 0.5, 0.2]),
                                 f=np.array([0.5, 0.9, 1.0, 0.9, 0.4]))
        assert ok.width == 0.9 - 0.2
        assert ok.alpha_monotone and ok.f_within_bound
        bad = SingularitySpectrum(q=q, h=q, alpha=np.array([0.9, 0.8, 0.8 + 2e-6, 0.5, 0.2]),
                                  f=np.array([0.5, 0.9, 1.0 + 2e-6, 0.9, 0.4]))
        assert not bad.alpha_monotone and not bad.f_within_bound
        edge = SingularitySpectrum(q=q, h=q, alpha=np.array([0.9, 0.8, 0.8 + 5e-7, 0.5, 0.2]),
                                   f=np.array([0.5, 0.9, 1.0 + 5e-7, 0.9, 0.4]))
        assert edge.alpha_monotone and edge.f_within_bound

    def test_derived_fields_are_not_arguments(self):
        q = np.arange(5.0)
        with pytest.raises(TypeError):
            SingularitySpectrum(q=q, h=q, alpha=q, f=q, width=4.0)


class TestCascadeBenchmark:
    def test_cascade_values(self):
        x = binomial_cascade(0.3, 3)
        assert x.size == 8
        assert abs(x.sum() - 1.0) < 1e-12
        assert abs(x[0] - 0.7**3) < 1e-15
        assert abs(x[7] - 0.3**3) < 1e-15
        assert abs(x[5] - 0.3**2 * 0.7) < 1e-15

    def test_cascade_validation(self):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            binomial_cascade(1.0, 4)
        with pytest.raises(ValueError, match="n_levels"):
            binomial_cascade(0.3, 0)

    def test_h_matches_closed_form(self):
        # h(q) = 1/q - log2(p^q + (1-p)^q)/q for the p = 0.3 cascade.
        surf, _ = analyze(binomial_cascade(0.3, 16))
        expected = {
            -4.0: 1.4989325221411913,
            -2.0: 1.358601169672388,
            2.0: 0.8929375973235764,
            4.0: 0.7526062448547732,
        }
        for qv, h_true in expected.items():
            i = int(np.argmin(np.abs(surf.q_grid - qv)))
            assert abs(surf.h[i] - h_true) < 0.05

    def test_h_nonincreasing_in_q(self):
        surf, _ = analyze(binomial_cascade(0.3, 16))
        assert (np.diff(surf.h) <= 0.02).all()

    def test_width_matches_closed_form(self):
        # Analytic width log2((1-p)/p) = log2(7/3).
        _, spec = analyze(binomial_cascade(0.3, 16))
        assert abs(spec.width - 1.222392421336448) < 0.1
        assert spec.alpha_monotone and spec.f_within_bound
        assert spec.f.max() <= 1.0 + 1e-6
        assert spec.f.max() > 0.95


class TestAverageSpectra:
    def test_average_of_identical_spectra_is_identity(self):
        q = default_q_grid()
        spec = singularity_spectrum(0.8 - 0.05 * q, q)
        avg = average_spectra([spec, spec, spec])
        assert np.allclose(avg.alpha, spec.alpha, atol=1e-12)
        assert np.allclose(avg.f, spec.f, atol=1e-12)
        assert abs(avg.width - spec.width) < 1e-12

    def test_parametric_average_at_fixed_q(self):
        q = default_q_grid()
        s1 = singularity_spectrum(0.8 - 0.05 * q, q)
        s2 = singularity_spectrum(0.6 - 0.01 * q, q)
        avg = average_spectra([s1, s2])
        assert np.allclose(avg.alpha, 0.5 * (s1.alpha + s2.alpha), atol=1e-12)
        assert np.allclose(avg.f, 0.5 * (s1.f + s2.f), atol=1e-12)
        assert abs(avg.width - (avg.alpha.max() - avg.alpha.min())) < 1e-12

    def test_rejects_empty_and_mismatched_grids(self):
        q = default_q_grid()
        spec = singularity_spectrum(0.8 - 0.05 * q, q)
        other = singularity_spectrum(np.full(5, 0.5), np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="at least one"):
            average_spectra([])
        with pytest.raises(ValueError, match="same q grid"):
            average_spectra([spec, other])


class TestSurfaceValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            FluctuationSurface(
                q_grid=default_q_grid(), scales=np.array([16, 32]), values=np.ones((3, 2))
            )

    def test_nonpositive_values_rejected(self):
        q = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            FluctuationSurface(q_grid=q, scales=np.array([16, 32]), values=np.zeros((5, 2)))

    def test_q_monotonicity_enforced(self):
        q = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        values = np.tile([[2.0], [1.0], [1.0], [1.0], [1.0]], (1, 2))
        with pytest.raises(ValueError, match="non-decreasing"):
            FluctuationSurface(q_grid=q, scales=np.array([16, 32]), values=values)

    def test_surface_is_nondecreasing_in_q(self):
        surf = fluctuation_surface(_white_noise(4000))
        assert (np.diff(surf.values, axis=0) >= -1e-9 * surf.values[:-1]).all()


# ---------------------------------------------------------------------------
# Reference: the per-segment lstsq, scalar-q and per-q polyfit implementation
# that the array expressions replaced.  The arithmetic order differs, so the
# comparison uses tolerances at rounding level for float64.
# ---------------------------------------------------------------------------

def _reference_segment_variances(y, n, l):
    m = y.size // n
    segments = np.vstack([y[: m * n].reshape(m, n), y[y.size - m * n :].reshape(m, n)])
    design = np.vander(np.linspace(-1.0, 1.0, n), l + 1, increasing=True)
    coef, _, _, _ = np.linalg.lstsq(design, segments.T, rcond=None)
    resid = segments - (design @ coef).T
    return (resid**2).mean(axis=1)


def _reference_fluctuations(v, q_grid):
    out = np.empty(len(q_grid))
    for i, q in enumerate(float(q) for q in q_grid):
        if q == 0:
            out[i] = np.exp(0.5 * np.mean(np.log(v)))
        else:
            out[i] = np.mean(v ** (q / 2.0)) ** (1.0 / q)
    return out


def _reference_surface(x, cfg):
    scales = cfg.resolved_scales(x.size)
    y = profile(x)
    values = np.empty((cfg.q_grid.size, scales.size))
    for j, n in enumerate(scales):
        values[:, j] = _reference_fluctuations(
            _reference_segment_variances(y, int(n), cfg.detrend_order), cfg.q_grid
        )
    ln_n = np.log(scales.astype(float))
    h = np.empty(cfg.q_grid.size)
    resid = np.empty(cfg.q_grid.size)
    for i in range(cfg.q_grid.size):
        ln_f = np.log(values[i])
        slope, intercept = np.polyfit(ln_n, ln_f, 1)
        h[i] = slope
        resid[i] = np.sqrt(np.mean((ln_f - (slope * ln_n + intercept)) ** 2))
    return values, h, resid


def _vol_clustered_eigensignal():
    model = preset("one_factor", seed=4, n_assets=20, t_length=8000, vol_clustering=(0.97, 0.2))
    r = generate(model)
    s = eigendecompose(correlation_matrix(r))
    return eigensignals(r, s, [1])[0].series


REFERENCE_SERIES = {
    "white_noise": lambda: _white_noise(8000),
    "vol_clustered_eigensignal": _vol_clustered_eigensignal,
    "binomial_cascade": lambda: binomial_cascade(0.3, 16),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SERIES))
@pytest.mark.parametrize("cfg", [MfdfaConfig(), MfdfaConfig(detrend_order=3)], ids=["l2", "l3"])
def test_mfdfa_matches_reference(name, cfg):
    x = REFERENCE_SERIES[name]()
    values, h, resid = _reference_surface(x, cfg)
    surf, _ = analyze(x, cfg)
    assert np.allclose(surf.values, values, rtol=1e-9, atol=0.0)
    assert np.abs(surf.h - h).max() < 1e-10
    assert np.abs(surf.fit_residual - resid).max() < 1e-10
