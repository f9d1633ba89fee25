import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import xcorr.panel
import xcorr.synth
from xcorr.panel import ReturnPanel, standardize
from xcorr.spectrum import correlation_matrix, eigendecompose, mp_bounds, overlap_fraction
from xcorr.synth import (
    _FACTOR_STREAM_BASE,
    PRESET_NAMES,
    MarketModel,
    _sector_assignment,
    _stream,
    burst_profile,
    expected_lambda1,
    generate,
    preset,
)


def per_asset_reference(m):
    """generate() as defined: each asset's log-AR(1) volatility run on its own."""
    t = m.t_length
    market = _stream(m.seed, _FACTOR_STREAM_BASE).standard_normal(t)
    sectors = [
        _stream(m.seed, _FACTOR_STREAM_BASE + 1 + i).standard_normal(t)
        for i in range(len(m.sector_spec))
    ]
    sector_idx, sector_beta = _sector_assignment(m)
    rows = np.empty((m.n_assets, t))
    for k in range(m.n_assets):
        rng = _stream(m.seed, k)
        eps = rng.standard_normal(t)
        g = m.market_loading * market + m.idiosyncratic_sigma * eps
        if sector_idx[k] >= 0:
            g = g + sector_beta[k] * sectors[sector_idx[k]]
        if m.vol_clustering is not None:
            a, s = m.vol_clustering
            eta = rng.standard_normal(t)
            v = np.empty(t)
            v[0] = eta[0] * (s / math.sqrt(1.0 - a * a) if a > 0 else s)
            for j in range(1, t):
                v[j] = a * v[j - 1] + s * eta[j]
            g = g * np.exp(v)
        rows[k] = g
    if m.intraday_profile is not None:
        u = np.tile(m.intraday_profile, -(-t // m.bars_per_day))[:t]
        rows = rows * u[None, :]
    raw = ReturnPanel(
        assets=[f"SYN{k:03d}" for k in range(m.n_assets)],
        returns=rows,
        standardized=False,
        bars_per_day=m.bars_per_day,
        dt_seconds=m.dt_seconds,
    )
    return standardize(raw)


class TestMarketModelValidation:
    def test_minimal_model(self):
        m = MarketModel(n_assets=1, t_length=2, bars_per_day=1)
        assert m.seed == 0

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError, match="n_assets"):
            MarketModel(n_assets=0, t_length=100, bars_per_day=10)
        with pytest.raises(ValueError, match="t_length"):
            MarketModel(n_assets=2, t_length=1, bars_per_day=10)
        with pytest.raises(ValueError, match="bars_per_day"):
            MarketModel(n_assets=2, t_length=100, bars_per_day=0)

    def test_rejects_bad_loadings(self):
        with pytest.raises(ValueError, match="market_loading"):
            MarketModel(n_assets=2, t_length=100, bars_per_day=10, market_loading=-0.1)
        with pytest.raises(ValueError, match="idiosyncratic_sigma"):
            MarketModel(n_assets=2, t_length=100, bars_per_day=10, idiosyncratic_sigma=0.0)

    def test_rejects_overfull_sectors(self):
        with pytest.raises(ValueError, match="exceed n_assets"):
            MarketModel(n_assets=10, t_length=100, bars_per_day=10, sector_spec=[(6, 0.5), (5, 0.5)])
        with pytest.raises(ValueError, match="sector"):
            MarketModel(n_assets=10, t_length=100, bars_per_day=10, sector_spec=[(0, 0.5)])

    def test_rejects_bad_intraday_profile(self):
        with pytest.raises(ValueError, match="length bars_per_day"):
            MarketModel(n_assets=2, t_length=100, bars_per_day=10, intraday_profile=np.ones(8))
        with pytest.raises(ValueError, match="strictly positive"):
            bad = np.ones(10)
            bad[0] = 0.0
            MarketModel(n_assets=2, t_length=100, bars_per_day=10, intraday_profile=bad)
        with pytest.raises(ValueError, match="geometric mean"):
            MarketModel(n_assets=2, t_length=100, bars_per_day=10, intraday_profile=np.full(10, 2.0))

    def test_rejects_bad_vol_clustering(self):
        with pytest.raises(ValueError, match="persistence"):
            MarketModel(n_assets=2, t_length=100, bars_per_day=10, vol_clustering=(1.0, 0.1))
        for vol_of_vol in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="vol-of-vol must be finite and non-negative"):
                MarketModel(n_assets=2, t_length=100, bars_per_day=10,
                            vol_clustering=(0.5, vol_of_vol))

    @pytest.mark.parametrize("overrides, field", [
        (dict(market_loading=math.nan), "market_loading"),
        (dict(market_loading=math.inf), "market_loading"),
        (dict(idiosyncratic_sigma=math.inf), "idiosyncratic_sigma"),
        (dict(sector_spec=[(2, math.nan)]), "sector_spec"),
        (dict(sector_spec=[(2, math.inf)]), "sector_spec"),
        (dict(intraday_profile=[math.nan, 1.0]), "intraday_profile"),
        (dict(n_assets=2.0), "n_assets"),
        (dict(t_length=2.5), "t_length"),
        (dict(sector_spec=[(1.5, 0.3)]), "sector_spec"),
        (dict(seed=1.9), "seed"),
        (dict(vol_clustering=(0.5,)), "vol_clustering"),
        (dict(sector_spec=[(2,)]), "sector_spec"),
        (dict(market_loading="0.3"), "market_loading must be a real number"),
        (dict(vol_clustering=("a", 0.1)), "vol_clustering persistence must be a real number"),
        (dict(vol_clustering=(0.5, "b")), "vol_clustering vol-of-vol must be a real number"),
        (dict(idiosyncratic_sigma=None), "idiosyncratic_sigma must be a real number"),
        (dict(sector_spec=[(2, "0.5")]), "sector_spec loading must be a real number"),
        (dict(dt_seconds="60"), "dt_seconds must be a real number"),
        (dict(dt_seconds=math.nan), "dt_seconds must be finite and positive"),
        (dict(dt_seconds=-1.0), "dt_seconds must be finite and positive"),
    ], ids=["loading_nan", "loading_inf", "sigma_inf", "sector_loading_nan",
            "sector_loading_inf", "profile_nan", "n_assets_float", "t_length_float",
            "sector_count_float", "seed_float", "vol_clustering_short", "sector_short",
            "loading_str", "persistence_str", "vol_of_vol_str", "sigma_none",
            "sector_loading_str", "dt_str", "dt_nan", "dt_negative"])
    def test_rejects_non_finite_and_non_integer_fields(self, overrides, field):
        # Unchecked, each passes or fails later as a TypeError, an unpacking
        # error or an error naming a row, and a float seed is truncated; a bad
        # dt_seconds would fail only inside generate.
        kw = dict(n_assets=4, t_length=100, bars_per_day=2)
        kw.update(overrides)
        with pytest.raises(ValueError, match=field):
            MarketModel(**kw)

    def test_numpy_integers_are_taken_as_ints(self):
        m = MarketModel(n_assets=np.int64(4), t_length=np.int32(100), bars_per_day=np.uint8(2),
                        sector_spec=[(np.int16(2), 0.5)], seed=np.uint64(2**64 - 1))
        assert (m.n_assets, m.t_length, m.bars_per_day, m.seed) == (4, 100, 2, 2**64 - 1)
        assert all(type(v) is int for v in (m.n_assets, m.t_length, m.bars_per_day, m.seed))
        ref = MarketModel(n_assets=4, t_length=100, bars_per_day=2, sector_spec=[(2, 0.5)],
                          seed=2**64 - 1)
        assert np.array_equal(generate(m).returns, generate(ref).returns)

    def test_to_dict_round_trip_fields(self):
        m = MarketModel(
            n_assets=5,
            t_length=100,
            bars_per_day=10,
            market_loading=0.3,
            sector_spec=[(2, 0.4)],
            vol_clustering=(0.9, 0.1),
            seed=7,
        )
        d = m.to_dict()
        assert d["n_assets"] == 5
        assert d["sector_spec"] == [[2, 0.4]]
        assert d["vol_clustering"] == [0.9, 0.1]
        assert d["seed"] == 7
        assert d["intraday_profile"] is None


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        m = MarketModel(n_assets=4, t_length=200, bars_per_day=20, market_loading=0.3, seed=5)
        a = generate(m)
        b = generate(m)
        assert np.array_equal(a.returns, b.returns)

    def test_seed_changes_output(self):
        kw = dict(n_assets=4, t_length=200, bars_per_day=20, market_loading=0.3)
        a = generate(MarketModel(seed=5, **kw))
        b = generate(MarketModel(seed=6, **kw))
        assert not np.allclose(a.returns, b.returns)

    def test_panel_is_standardized_with_metadata(self):
        m = MarketModel(n_assets=3, t_length=150, bars_per_day=15, dt_seconds=120.0, seed=1)
        p = generate(m)
        assert p.standardized
        assert p.assets == ["SYN000", "SYN001", "SYN002"]
        assert p.bars_per_day == 15
        assert p.dt_seconds == 120.0
        assert np.allclose(p.returns.var(axis=1), 1.0, atol=1e-10)

    def test_adding_assets_keeps_existing_rows(self):
        # Per-asset streams are keyed by asset index, so widening the universe
        # reproduces the previous assets' series bit for bit.
        for vol in (None, (0.9, 0.2)):
            kw = dict(t_length=500, bars_per_day=50, market_loading=0.4, vol_clustering=vol, seed=9)
            small = generate(MarketModel(n_assets=2, **kw))
            wide = generate(MarketModel(n_assets=3, **kw))
            assert np.array_equal(small.returns, wide.returns[:2]), vol

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("one_factor", dict(n_assets=12, vol_clustering=(0.97, 0.2))),
            ("market_sectors", dict(n_assets=50, vol_clustering=(0.97, 0.2))),
            ("intraday", dict(n_assets=8, vol_clustering=(0.8, 0.3))),
            ("one_factor", dict(n_assets=6, vol_clustering=(0.0, 0.3))),
            ("one_factor", dict(n_assets=1, vol_clustering=(0.9, 0.1))),
        ],
        ids=["one_factor", "sectors", "intraday", "a=0", "N=1"],
    )
    def test_vol_clustering_matches_per_asset_recursion(self, name, overrides):
        m = preset(name, seed=13, t_length=1500, **overrides)
        assert np.array_equal(generate(m).returns, per_asset_reference(m).returns)

    @pytest.mark.parametrize("helpers", [0, 1, 3], ids=lambda h: f"helpers{h}")
    @pytest.mark.parametrize("name, overrides", [
        ("one_factor", dict(vol_clustering=(0.97, 0.2))),
        ("market_sectors", dict(sector_spec=[(20, 0.5), (20, 0.5)],
                                vol_clustering=(0.9, 0.3))),
        ("intraday", dict(vol_clustering=(0.8, 0.3))),
        ("intraday", dict()),
    ], ids=["one_factor", "sectors", "intraday", "intraday_no_vol"])
    def test_pooled_draws_match_the_serial_loop(self, monkeypatch, helpers, name, overrides):
        # 50 assets are row blocks of 16, 16, 16 and 2 shared among threads.
        m = preset(name, seed=29, n_assets=50, t_length=3000, **overrides)
        expect = per_asset_reference(m).returns
        monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
        got = generate(m).returns
        assert np.array_equal(got, expect)
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("helpers", [0, 1, 3], ids=lambda h: f"helpers{h}")
    def test_exp_in_many_chunks_matches_the_serial_loop(self, monkeypatch, helpers):
        # 50 assets in row blocks of 3: the draws, the exp and scaling pass
        # and the standardization each run over 17 blocks.
        m = preset("intraday", seed=37, n_assets=50, t_length=3000, vol_clustering=(0.9, 0.3))
        expect = per_asset_reference(m).returns
        monkeypatch.setattr(xcorr.panel, "_ROW_BLOCK", 3)
        monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
        assert np.array_equal(generate(m).returns, expect)

    @pytest.mark.parametrize("helpers", [0, 1, 3], ids=lambda h: f"helpers{h}")
    def test_overflowing_volatility_names_vol_clustering(self, monkeypatch, helpers):
        # The log-volatility's stationary spread is 50 / sqrt(1 - 0.999**2),
        # about 1100: exp of it overflows.  pytest turns the RuntimeWarning an
        # overflow would raise into an error, so none is raised.
        m = MarketModel(n_assets=20, t_length=2000, bars_per_day=10, market_loading=0.4,
                        vol_clustering=(0.999, 50.0))
        monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
        with pytest.raises(ValueError, match=r"^vol_clustering=\(0\.999, 50\.0\) drives the "
                                             r"log-volatility to .*: the scaled returns would overflow$"):
            generate(m)

    @pytest.mark.parametrize("helpers", [0, 1, 3], ids=lambda h: f"helpers{h}")
    def test_overflow_reports_the_first_failing_row_block(self, monkeypatch, helpers):
        # Three row blocks whose largest log-volatilities rise (about 69, 74
        # and 80); with the limit between the first two, blocks 1 and 2 both
        # fail and the error reports block 1's maximum, not the largest one.
        a, s = 0.9, 10.0
        m = MarketModel(n_assets=48, t_length=300, bars_per_day=10, vol_clustering=(a, s), seed=6)
        logvol = np.empty((m.n_assets, m.t_length))
        for k in range(m.n_assets):
            eta = _stream(m.seed, k).standard_normal((2, m.t_length))[1]
            logvol[k, 0] = eta[0] * s / math.sqrt(1.0 - a * a)
            for j in range(1, m.t_length):
                logvol[k, j] = a * logvol[k, j - 1] + s * eta[j]
        tops = logvol.reshape(3, 16, -1).max(axis=(1, 2))
        assert tops[0] < tops[1] < tops[2] < xcorr.synth._MAX_LOG_VOL
        monkeypatch.setattr(xcorr.synth, "_MAX_LOG_VOL", (tops[0] + tops[1]) / 2)
        monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
        with pytest.raises(ValueError, match=f"drives the log-volatility to {tops[1]:.6g}, "):
            generate(m)

    def test_pooled_draws_hold_under_contention(self, monkeypatch):
        # More threads than cores writing disjoint rows and columns of the
        # shared buffers, switching as often as the interpreter can.
        m = preset("market_sectors", seed=31, n_assets=100, t_length=400,
                   sector_spec=[(20, 0.5), (20, 0.5)], vol_clustering=(0.9, 0.3))
        expect = per_asset_reference(m).returns
        pool = ThreadPoolExecutor(6)
        monkeypatch.setattr(xcorr.panel, "_POOL", pool)
        monkeypatch.setattr(xcorr.panel, "_HELPERS", 6)
        failures = []

        def stress():
            for _ in range(20):
                if not np.array_equal(generate(m).returns, expect):
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

    def test_null_model_matches_random_band(self):
        p = generate(MarketModel(n_assets=30, t_length=3000, bars_per_day=100, seed=0))
        s = eigendecompose(correlation_matrix(p))
        b = mp_bounds(100.0)
        assert s.eigenvalues[0] < b.lambda_max + 0.1
        assert overlap_fraction(s, b) >= 0.95

    def test_one_factor_top_eigenvalue_matches_prediction(self):
        m = MarketModel(
            n_assets=50,
            t_length=5000,
            bars_per_day=100,
            market_loading=math.sqrt(0.18 / 0.82),
            seed=1,
        )
        s = eigendecompose(correlation_matrix(generate(m)))
        assert abs(s.eigenvalues[0] - expected_lambda1(m)) < 0.5
        assert s.eigenvalues[0] / s.eigenvalues[1] > 5.0

    def test_sector_modes_stand_above_the_band(self):
        m = preset("market_sectors", seed=2, n_assets=100, t_length=8000)
        s = eigendecompose(correlation_matrix(generate(m)))
        b = mp_bounds(80.0)
        assert s.eigenvalues[1] > 2.0 * b.lambda_max
        assert s.eigenvalues[2] > 2.0 * b.lambda_max
        assert s.eigenvalues[3] < b.lambda_max

    def test_vol_clustering_raises_magnitude_autocorrelation(self):
        def acf1_abs(row):
            a = np.abs(row)
            a = a - a.mean()
            return float((a[:-1] * a[1:]).mean() / (a * a).mean())

        kw = dict(n_assets=2, t_length=8000, bars_per_day=100, seed=3)
        plain = generate(MarketModel(**kw))
        clustered = generate(MarketModel(vol_clustering=(0.97, 0.2), **kw))
        assert acf1_abs(plain.returns[0]) < 0.05
        assert acf1_abs(clustered.returns[0]) > 0.2

    def test_intraday_profile_boosts_burst_bars(self):
        m = preset("intraday", seed=4, t_length=8000)
        p = generate(m)
        bar_idx = np.arange(p.t_length) % 100
        burst = np.isin(bar_idx, list(range(5)) + list(range(95, 100)))
        ratio = p.returns[:, burst].var() / p.returns[:, ~burst].var()
        assert ratio > 10.0


class TestExpectedLambda1:
    def test_no_coupling_gives_one(self):
        m = MarketModel(n_assets=100, t_length=1000, bars_per_day=10)
        assert expected_lambda1(m) == 1.0

    def test_equal_loading_and_noise(self):
        m = MarketModel(n_assets=100, t_length=1000, bars_per_day=10, market_loading=1.0)
        assert abs(expected_lambda1(m) - (1.0 + 99 * 0.5)) < 1e-12

    def test_rejects_structured_models(self):
        with pytest.raises(ValueError, match="single-factor"):
            expected_lambda1(
                MarketModel(n_assets=10, t_length=100, bars_per_day=10, sector_spec=[(5, 0.5)])
            )
        with pytest.raises(ValueError, match="single-factor"):
            expected_lambda1(
                MarketModel(n_assets=10, t_length=100, bars_per_day=10, vol_clustering=(0.9, 0.1))
            )

    def test_intraday_profile_is_allowed(self):
        m = preset("intraday")
        assert abs(expected_lambda1(m) - (1.0 + 99 * 0.18)) < 1e-12


class TestBurstProfile:
    def test_unit_geometric_mean(self):
        u = burst_profile(100, 10, 6.0)
        assert abs(np.log(u).mean()) < 1e-12

    def test_burst_to_quiet_ratio_is_level(self):
        u = burst_profile(100, 10, 6.0)
        assert abs(u[0] / u[50] - 6.0) < 1e-12

    def test_odd_burst_count_front_loaded(self):
        u = burst_profile(8, 5, 3.0)
        high = u > 1.0
        assert high[:3].all() and high[-2:].all() and not high[3:6].any()

    def test_validation(self):
        with pytest.raises(ValueError, match="n_burst"):
            burst_profile(10, 0, 2.0)
        with pytest.raises(ValueError, match="n_burst"):
            burst_profile(10, 10, 2.0)
        with pytest.raises(ValueError, match="level"):
            burst_profile(10, 4, 0.0)


class TestPresets:
    def test_preset_names_resolve(self):
        for name in PRESET_NAMES:
            m = preset(name)
            assert m.t_length / m.n_assets > 100

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("levy_flights")

    def test_null_preset_is_uncoupled(self):
        m = preset("mp_null")
        assert m.market_loading == 0.0
        assert m.sector_spec == []

    def test_one_factor_coupling_level(self):
        m = preset("one_factor")
        rho = m.market_loading**2 / (m.market_loading**2 + 1.0)
        assert abs(rho - 0.18) < 1e-12

    def test_sector_preset_shape(self):
        m = preset("market_sectors")
        assert m.n_assets == 400
        assert m.sector_spec == [(20, 0.5), (20, 0.5)]

    def test_intraday_preset_profile(self):
        m = preset("intraday")
        assert m.intraday_profile is not None
        assert m.intraday_profile.size == 100

    def test_overrides_and_seed(self):
        m = preset("one_factor", seed=11, t_length=2000)
        assert m.seed == 11
        assert m.t_length == 2000
