import math

import numpy as np
import pytest

from xcorr.cli import ingest
from xcorr.modes import eigensignals, remove_mode
from xcorr.panel import PricePanel, ReturnPanel, coarsen, log_returns, standardize
from xcorr.spectrum import correlation_matrix, eigendecompose
from xcorr.surrogate import KINDS, SurrogateSpec, apply_surrogate
from xcorr.synth import MarketModel, generate


def price_panel(rows, bars_per_day=4, dt=300.0):
    rows = np.asarray(rows, dtype=float)
    t = np.arange(rows.shape[1]) * dt
    return PricePanel(
        assets=[f"A{i}" for i in range(rows.shape[0])],
        timestamps=t,
        prices=rows,
        bars_per_day=bars_per_day,
    )


class TestLogReturns:
    def test_constant_price_gives_zero_returns(self):
        r = log_returns(price_panel([[1.0, 1.0, 1.0]]))
        assert np.array_equal(r.returns, [[0.0, 0.0]])
        assert not r.standardized

    def test_exact_exponential_growth(self):
        e = math.e
        r = log_returns(price_panel([[1.0, e, e * e]]))
        assert np.allclose(r.returns, [[1.0, 1.0]], atol=1e-14)

    def test_fixture_against_elementwise_ln_ratio(self, prices_small_path):
        p = ingest(prices_small_path, "wide")
        r = log_returns(p)
        for i in range(p.n_assets):
            for j in range(r.t_length):
                expect = math.log(p.prices[i, j + 1] / p.prices[i, j])
                assert abs(r.returns[i, j] - expect) < 1e-15

    def test_non_positive_price_rejected_with_location(self):
        with pytest.raises(ValueError, match="A1.*bar 2|bar 2.*A1"):
            price_panel([[1.0, 2.0, 3.0], [1.0, 2.0, -3.0]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            PricePanel(
                assets=["A", "B"],
                timestamps=np.array([0.0, 1.0, 2.0]),
                prices=[[1.0, 2.0, 3.0], [1.0, 2.0]],
                bars_per_day=1,
            )

    def test_metadata_carried_over(self, prices_small_path):
        p = ingest(prices_small_path, "wide", bars_per_day=4)
        r = log_returns(p)
        assert r.bars_per_day == 4
        assert r.dt_seconds == 300.0
        assert r.assets == ["AAA", "BBB", "CCC"]


class TestStandardize:
    def test_already_standard_row_unchanged(self):
        r = ReturnPanel(["A"], [[1.0, -1.0, 1.0, -1.0]], False, 4, 60.0)
        s = standardize(r)
        assert np.allclose(s.returns, [[1.0, -1.0, 1.0, -1.0]], atol=1e-15)
        assert s.standardized

    def test_mean_zero_variance_one_oracle(self):
        row = [5.0, 5.0, 5.0, 7.0]
        s = standardize(ReturnPanel(["A"], [row], False, 4, 60.0))
        mean = sum(row) / 4.0
        std = math.sqrt(sum((x - mean) ** 2 for x in row) / 4.0)
        expect = [(x - mean) / std for x in row]
        assert np.allclose(s.returns[0], expect, atol=1e-15)
        assert abs(s.returns[0].mean()) < 1e-10
        assert abs(s.returns[0].var() - 1.0) < 1e-8

    def test_constant_row_error_names_asset(self):
        r = ReturnPanel(["A", "FLAT"], [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]], False, 1, 60.0)
        with pytest.raises(ValueError, match="FLAT"):
            standardize(r)

    def test_idempotence(self, panel_3x16):
        again = standardize(panel_3x16)
        assert np.allclose(again.returns, panel_3x16.returns, atol=1e-12)


class TestCoarsen:
    def panel(self):
        return ReturnPanel(
            ["A"], [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]], False, 6, 60.0
        )

    def test_factor_one_identity(self):
        r = self.panel()
        c = coarsen(r, 1)
        assert np.array_equal(c.returns, r.returns)
        assert c.bars_per_day == 6 and c.dt_seconds == 60.0

    def test_block_sums(self):
        c = coarsen(self.panel(), 2)
        assert np.allclose(c.returns, [[0.1 + 0.2, 0.3 + 0.4, 0.5 + 0.6]], atol=1e-15)
        assert c.bars_per_day == 3 and c.dt_seconds == 120.0
        assert not c.standardized

    def test_composition(self, panel_3x16):
        # bars_per_day 4 does not divide by 6; rebuild with bpd 12 on tiled data
        base = ReturnPanel(
            panel_3x16.assets,
            np.tile(panel_3x16.returns, (1, 3)),
            False,
            12,
            60.0,
        )
        once = coarsen(coarsen(base, 2), 3)
        direct = coarsen(base, 6)
        assert np.allclose(once.returns, direct.returns, atol=1e-12)
        assert once.bars_per_day == direct.bars_per_day == 2

    def test_factor_must_divide_bars_per_day(self):
        with pytest.raises(ValueError, match="divide"):
            coarsen(self.panel(), 4)

    def test_trailing_partial_block_dropped(self):
        r = ReturnPanel(["A"], [[1.0, 2.0, 3.0, 4.0, 5.0]], False, 2, 60.0)
        c = coarsen(r, 2)
        assert np.array_equal(c.returns, [[3.0, 7.0]])

    def test_coarsening_preserves_total(self, panel_3x16):
        c = coarsen(panel_3x16, 2)
        for i in range(3):
            kept = panel_3x16.returns[i, : 2 * (panel_3x16.t_length // 2)]
            assert abs(c.returns[i].sum() - kept.sum()) < 1e-12


def test_log_return_additivity_over_day(prices_small_path):
    p = ingest(prices_small_path, "wide", bars_per_day=4)
    r = log_returns(p)
    day = r.returns[:, 0:4].sum(axis=1)
    expect = np.log(p.prices[:, 4] / p.prices[:, 0])
    assert np.allclose(day, expect, atol=1e-10)


class TestPanelValidation:
    def test_non_uniform_timestamps_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            PricePanel(["A"], np.array([0.0, 1.0, 3.0]), [[1.0, 2.0, 3.0]], 1)

    def test_timestamp_length_mismatch(self):
        with pytest.raises(ValueError):
            PricePanel(["A"], np.array([0.0, 1.0]), [[1.0, 2.0, 3.0]], 1)

    def test_standardized_flag_validated(self):
        with pytest.raises(ValueError, match="A0"):
            ReturnPanel(["A0"], [[5.0, 6.0, 7.0]], True, 1, 60.0)

    def test_row_and_column_views(self, panel_3x16):
        row = panel_3x16.row(1)
        col = panel_3x16.column(2)
        assert row.shape == (16,) and col.shape == (3,)
        assert not row.flags.writeable and not col.flags.writeable

    def test_returns_read_only(self, panel_3x16):
        with pytest.raises(ValueError):
            panel_3x16.returns[0, 0] = 99.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ReturnPanel(["A"], [[1.0, np.nan, 2.0]], False, 1, 60.0)

    def test_single_point_series_rejected(self):
        with pytest.raises(ValueError):
            ReturnPanel(["A"], [[1.0]], False, 1, 60.0)


class TestOwnership:
    """A panel copies what a caller could still write to, and takes as-is the
    frozen arrays the library computes."""

    def test_writable_caller_array_is_copied(self):
        rows = np.arange(12.0).reshape(3, 4)
        r = ReturnPanel(["A", "B", "C"], rows, False, 4, 60.0)
        rows[0, 0] = 99.0
        assert r.returns[0, 0] == 0.0
        assert rows.flags.writeable

    def test_frozen_array_owning_its_data_is_taken_as_is(self):
        rows = np.arange(12.0).reshape(3, 4).copy()
        rows.setflags(write=False)
        r = ReturnPanel(["A", "B", "C"], rows, False, 4, 60.0)
        assert r.returns is rows

    def test_read_only_view_is_copied(self):
        base = np.arange(24.0).reshape(3, 8)
        view = base[:, :4]
        view.setflags(write=False)
        r = ReturnPanel(["A", "B", "C"], view, False, 4, 60.0)
        base[0, 0] = 99.0
        assert r.returns[0, 0] == 0.0

    def test_derived_panels_are_read_only(self, panel_4x64, prices_small_path):
        s = eigendecompose(correlation_matrix(panel_4x64))
        (z,) = eigensignals(panel_4x64, s, [1])
        derived = [
            standardize(panel_4x64),
            coarsen(panel_4x64, 2),
            log_returns(ingest(prices_small_path, "wide", bars_per_day=4)),
            generate(MarketModel(n_assets=3, t_length=40, bars_per_day=4, seed=1)),
            remove_mode(panel_4x64, z).panel,
            *(apply_surrogate(panel_4x64, SurrogateSpec(kind=k, seed=5)) for k in KINDS),
        ]
        for d in derived:
            assert not d.returns.flags.writeable

    def test_coarsen_overflow_is_rejected(self):
        r = ReturnPanel(["A", "B"], [[1e308, 1e308, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]],
                        False, 2, 60.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            coarsen(r, 2)

    @pytest.mark.parametrize("layout", ["C", "F", "window"])
    def test_standardize_matches_formula_bitwise(self, layout):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 503)) * rng.uniform(0.01, 50.0, (7, 1)) + 3.0
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "window":
            x = x[:, 100:400]
        r = ReturnPanel([f"A{i}" for i in range(7)], x, False, 1, 60.0)
        expect = (x - x.mean(1, keepdims=True)) / x.std(1, keepdims=True)
        assert np.array_equal(standardize(r).returns, expect)
