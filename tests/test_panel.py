import ast
import gc
import importlib.util
import inspect
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import xcorr.mfdfa
import xcorr.modes
import xcorr.panel
import xcorr.spectrum
import xcorr.surrogate
import xcorr.synth
from xcorr.cli import export_panel, ingest
from xcorr.modes import eigensignals, remove_mode
from xcorr.panel import (
    PricePanel,
    ReturnPanel,
    _each,
    _each_block,
    _standardized_rows,
    coarsen,
    log_returns,
    standardize,
)
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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_price_rejected_with_location(self, bad):
        with pytest.raises(ValueError, match="non-finite price for asset 'A1' at bar 2"):
            price_panel([[1.0, 2.0, 3.0], [1.0, 2.0, bad]])

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

    def test_a_standardized_panel_passes_through(self, panel_3x16):
        # Its construction checked the row means and variances to MEAN_TOL
        # and VAR_TOL, so there is nothing left to do.
        assert standardize(panel_3x16) is panel_3x16

    def test_a_raw_panel_gives_a_new_frozen_panel(self):
        x = np.array([[1.0, 2.0, 4.0, 8.0], [3.0, -1.0, 0.5, 2.0]])
        raw = ReturnPanel(["A", "B"], x, False, 4, 60.0)
        s = standardize(raw)
        assert s is not raw and s.standardized and not raw.standardized
        assert not s.returns.flags.writeable
        assert not np.shares_memory(s.returns, raw.returns)
        assert np.array_equal(raw.returns, x)
        expect = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        assert np.array_equal(s.returns, expect)


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _guarded_standardize_calls(source):
    """Lines of `source` where an ``if`` or a conditional expression reads
    ``.standardized`` and calls ``standardize`` in a branch: the decision
    :func:`standardize` makes itself."""
    def calls_standardize(nodes):
        return any(
            isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "standardize"
            for node in nodes for n in ast.walk(node)
        )

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        reads = any(isinstance(n, ast.Attribute) and n.attr == "standardized"
                    for n in ast.walk(node.test))
        branches = ([node.body, node.orelse] if isinstance(node, ast.IfExp)
                    else node.body + node.orelse)
        if reads and calls_standardize(branches):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("source, lines", [
    ("z = r if r.standardized else standardize(r)\n", [1]),
    ("if not sur.standardized:\n    sur = xcorr.panel.standardize(sur)\n", [1]),
    ("if p.standardized:\n    pass\nelse:\n    p = standardize(p)\n", [1]),
    ("z = standardize(r)\nif r.standardized:\n    print(r)\n", []),
], ids=["conditional", "if", "else", "unguarded"])
def test_the_guard_finder_finds_guards(source, lines):
    assert _guarded_standardize_calls(source) == lines


@pytest.mark.parametrize("path", sorted(
    os.path.relpath(os.path.join(d, f), REPO)
    for d in (os.path.join(REPO, "src", "xcorr"), os.path.join(REPO, "demos"))
    for f in os.listdir(d) if f.endswith(".py")
))
def test_no_caller_asks_whether_a_panel_is_standardized(path):
    # standardize passes a standardized panel through, so a caller that
    # checks the flag first only repeats that decision.
    with open(os.path.join(REPO, path), encoding="utf-8") as fh:
        assert _guarded_standardize_calls(fh.read()) == []


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


@pytest.mark.parametrize("call, message", [
    (lambda r, c, s: coarsen(r, None), "factor must be an integer, got None"),
    (lambda r, c, s: coarsen(r, math.inf), "factor must be an integer, got inf"),
    (lambda r, c, s: coarsen(r, 2.0), "factor must be an integer, got 2.0"),
    (lambda r, c, s: xcorr.spectrum.element_distribution(c, 10.5),
     "n_bins must be an integer, got 10.5"),
    (lambda r, c, s: xcorr.spectrum.windowed_element_distribution(r, "2"),
     "q_target must be a real number, got '2'"),
    (lambda r, c, s: xcorr.spectrum.windowed_element_distribution(r, 2.0, 10.5),
     "n_bins must be an integer, got 10.5"),
    (lambda r, c, s: xcorr.modes.remove_modes_iterative(r, 1.5),
     "count must be an integer, got 1.5"),
    (lambda r, c, s: xcorr.modes.remove_modes_iterative(r, None),
     "count must be an integer, got None"),
    (lambda r, c, s: eigensignals(r, s, [1.5]), "mode index must be an integer, got 1.5"),
    (lambda r, c, s: xcorr.spectrum.mp_bounds("4"), "Q must be a real number, got '4'"),
    (lambda r, c, s: xcorr.spectrum.mp_bounds(None), "Q must be a real number, got None"),
], ids=["coarsen-None", "coarsen-inf", "coarsen-2.0", "elements-bins", "windowed-q_target",
        "windowed-bins", "remove-1.5", "remove-None", "eigensignals", "mp-str", "mp-None"])
def test_numeric_argument_of_the_wrong_type_is_a_named_error(panel_4x64, call, message):
    c = xcorr.spectrum.correlation_matrix(panel_4x64)
    s = xcorr.spectrum.eigendecompose(c)
    with pytest.raises(ValueError) as exc:
        call(panel_4x64, c, s)
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda r, s: xcorr.synth.preset("one_factor", nope=3),
     "unknown MarketModel field(s) ['nope'] for preset 'one_factor'"),
    (lambda r, s: xcorr.synth.burst_profile(10, "x", 2.0), "n_burst must be an integer, got 'x'"),
    (lambda r, s: xcorr.synth.burst_profile(10.0, 2, 2.0),
     "bars_per_day must be an integer, got 10.0"),
    (lambda r, s: xcorr.synth.burst_profile(10, 2, "x"), "level must be a real number, got 'x'"),
    (lambda r, s: xcorr.synth.burst_profile(10, 2, math.inf),
     "level must be finite and positive, got inf"),
    (lambda r, s: xcorr.modes.Eigensignal("1", eigensignals(r, s, [1])[0].series, s.eigenvalues[0]),
     "index must be an integer, got '1'"),
    (lambda r, s: xcorr.modes.Eigensignal(1, eigensignals(r, s, [1])[0].series, None),
     "eigenvalue must be a real number, got None"),
    (lambda r, s: xcorr.spectrum.EigenSpectrum(s.eigenvalues, s.eigenvectors, source_q="q"),
     "source_q must be a real number, got 'q'"),
    (lambda r, s: xcorr.surrogate.apply_surrogate(r, "rotate_free"),
     "spec must be SurrogateSpec, got str"),
    (lambda r, s: xcorr.mfdfa.average_spectra([1, 2]),
     "spectra must be SingularitySpectrum records, got [1, 2]"),
], ids=["preset-field", "burst-n_burst", "burst-bars_per_day", "burst-level", "burst-inf",
        "eigensignal-index", "eigensignal-eigenvalue", "spectrum-source_q", "surrogate-spec", "average-spectra"])
def test_a_bad_argument_at_a_library_edge_is_a_named_error(panel_4x64, call, message):
    s = xcorr.spectrum.eigendecompose(xcorr.spectrum.correlation_matrix(panel_4x64))
    with pytest.raises(ValueError) as exc:
        call(panel_4x64, s)
    assert str(exc.value) == message


class TestPanelValidation:
    def test_non_uniform_timestamps_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            PricePanel(["A"], np.array([0.0, 1.0, 3.0]), [[1.0, 2.0, 3.0]], 1)

    def test_timestamp_length_mismatch(self):
        with pytest.raises(ValueError):
            PricePanel(["A"], np.array([0.0, 1.0]), [[1.0, 2.0, 3.0]], 1)

    @pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1.0,
                                    pytest.param(10**400, id="10**400")])
    def test_dt_seconds_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt_seconds must be finite and positive"):
            ReturnPanel(["A"], [[1.0, 2.0, 3.0]], False, 1, dt)

    @pytest.mark.parametrize("bars", [math.inf, math.nan, 2.5, 0,
                                      pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("make", [
        lambda bars: ReturnPanel(["A"], [[1.0, 2.0, 3.0]], False, bars, 60.0),
        lambda bars: PricePanel(["A"], np.array([0.0, 1.0, 2.0]), [[1.0, 2.0, 3.0]], bars),
    ], ids=["ReturnPanel", "PricePanel"])
    def test_bars_per_day_must_be_a_positive_integer(self, make, bars):
        with pytest.raises(ValueError, match="bars_per_day must be a positive integer"):
            make(bars)

    def test_standardized_flag_validated(self):
        with pytest.raises(ValueError, match="A0"):
            ReturnPanel(["A0"], [[5.0, 6.0, 7.0]], True, 1, 60.0)

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

    def test_read_only_view_of_frozen_array_is_taken_as_is(self):
        base = np.arange(32.0).reshape(4, 8).copy()
        base.setflags(write=False)
        view = base[1:]  # a row slice: C-contiguous
        r = ReturnPanel(["A", "B", "C"], view, False, 4, 60.0)
        assert r.returns is view

    def test_frozen_column_window_is_copied_into_c_order(self):
        base = np.arange(24.0).reshape(3, 8).copy()
        base.setflags(write=False)
        view = base[:, 2:6]
        r = ReturnPanel(["A", "B", "C"], view, False, 4, 60.0)
        assert r.returns is not view and r.returns.flags.c_contiguous
        assert r.returns.base is None and not r.returns.flags.writeable
        assert np.array_equal(r.returns, view)

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
        # 33 rows: two full row blocks and a partial one.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((33, 503)) * rng.uniform(0.01, 50.0, (33, 1)) + 3.0
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "window":
            x = x[:, 100:400]
        r = ReturnPanel([f"A{i}" for i in range(33)], x, False, 1, 60.0)
        # The panel holds a C-ordered copy, whose row sums the formula follows.
        c = np.ascontiguousarray(x)
        expect = (c - c.mean(1, keepdims=True)) / c.std(1, keepdims=True)
        assert np.array_equal(standardize(r).returns, expect)


def _rows(n=33, t=64, seed=4):
    return np.random.default_rng(seed).standard_normal((n, t)) * 2.0 + 1.0


def _assets(n=33):
    return [f"A{i}" for i in range(n)]


class TestLaterRowBlocks:
    """Errors raised from a row past the first block of a C-ordered panel."""

    def test_zero_variance_row_is_named(self):
        x = _rows()
        x[20] = 3.0
        with pytest.raises(ValueError, match="zero-variance series 'A20'"):
            standardize(ReturnPanel(_assets(), x, False, 1, 60.0))

    def test_non_finite_row_is_rejected(self):
        x = _rows()
        x[30, 5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            ReturnPanel(_assets(), x, False, 1, 60.0)

    def test_non_finite_is_reported_before_an_earlier_unstandardized_row(self):
        x = standardize(ReturnPanel(_assets(), _rows(), False, 1, 60.0)).returns.copy()
        x[3] *= 2.0
        x[30, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ReturnPanel(_assets(), x, True, 1, 60.0)

    def test_unstandardized_row_is_named(self):
        x = standardize(ReturnPanel(_assets(), _rows(), False, 1, 60.0)).returns.copy()
        x[17] *= 2.0
        with pytest.raises(ValueError, match="row 'A17' is not standardized"):
            ReturnPanel(_assets(), x, True, 1, 60.0)


class TestTooLargeToStandardize:
    """The squares of values above about 1e154 overflow float64.  pytest turns
    the RuntimeWarning that would give into an error, in helper threads too."""

    @pytest.mark.parametrize("helpers", [0, 3])
    @pytest.mark.parametrize("huge", [
        lambda row: row * 1e160,
        # numpy's sum keeps eight partial sums, here four reach +inf and four
        # -inf: the row mean is nan.
        lambda row: np.where(np.arange(row.size) % 8 < 4, 1e308, -1e308),
    ], ids=["squares_overflow", "mean_is_nan"])
    @pytest.mark.parametrize("build", [
        lambda x: standardize(ReturnPanel(_assets(40), x, False, 1, 60.0)),
        lambda x: xcorr.surrogate.magnitudes_only(ReturnPanel(_assets(40), x, False, 1, 60.0)),
        lambda x: ReturnPanel(_assets(40), x, True, 1, 60.0),
    ], ids=["standardize", "magnitudes_only", "standardized_panel"])
    def test_first_huge_row_is_named(self, monkeypatch, helpers, huge, build):
        monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
        x = standardize(ReturnPanel(_assets(40), _rows(40), False, 1, 60.0)).returns.copy()
        x[21] = huge(x[21])
        x[33] *= 1e300
        with pytest.raises(ValueError, match="^row 'A21' has values too large to standardize"):
            build(x)

    @pytest.mark.parametrize("loading", ["idiosyncratic_sigma", "market_loading"])
    def test_generate_names_the_row(self, loading):
        m = MarketModel(n_assets=4, t_length=200, bars_per_day=10, **{loading: 1e200})
        with pytest.raises(ValueError, match="^row 'SYN000' has values too large to standardize"):
            generate(m)


class TestFinitenessFromRowSums:
    """The check reads finiteness from its row sums and scans only a block
    whose sum is not finite, with the verdicts of a scan of every value."""

    @staticmethod
    def overflowing_sum(t=64):
        row = -np.ones(t)
        row[:2] = 1e308
        return row

    def test_finite_row_whose_sum_overflows_is_accepted_raw(self):
        x = _rows(3)
        x[1] = self.overflowing_sum()
        p = ReturnPanel(_assets(3), x, False, 1, 60.0)
        assert np.array_equal(p.returns, x)

    def test_same_row_is_too_large_to_standardize(self):
        x = standardize(ReturnPanel(_assets(3), _rows(3), False, 1, 60.0)).returns.copy()
        x[1] = self.overflowing_sum()
        with pytest.raises(ValueError, match="^row 'A1' has values too large to standardize"):
            ReturnPanel(_assets(3), x, True, 1, 60.0)

    @pytest.mark.parametrize("helpers", [0, 1, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("standardized", [False, True])
    def test_non_finite_value_in_the_second_block(self, monkeypatch, helpers, bad,
                                                   standardized):
        monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
        x = standardize(ReturnPanel(_assets(50), _rows(50), False, 1, 60.0)).returns.copy()
        x[20, 7] = bad
        with pytest.raises(ValueError, match="^returns contain non-finite values$"):
            ReturnPanel(_assets(50), x, standardized, 1, 60.0)


def _top_signal(s):
    (z,) = eigensignals(s, eigendecompose(correlation_matrix(s)), [1])
    return z


class TestPassCounts:
    """A construction validates in one pass over the panel; standardize, the
    sign and magnitude surrogates and a mode-removal pass make one more."""

    @pytest.mark.parametrize("build, passes", [
        (lambda raw, s: ReturnPanel(s.assets, s.returns, True, 1, 60.0), 1),
        (lambda raw, s: standardize(raw), 2),
        (lambda raw, s: xcorr.surrogate.signs_only(raw), 2),
        (lambda raw, s: xcorr.surrogate.magnitudes_only(raw), 2),
        (lambda raw, s: xcorr.modes._regress_out(s, _top_signal(s)), 2),
    ], ids=["standardized_panel", "standardize", "signs_only", "magnitudes_only",
            "removal_pass"])
    def test_passes_over_the_panel(self, monkeypatch, build, passes):
        raw = ReturnPanel(_assets(), _rows(), False, 1, 60.0)
        s = standardize(raw)
        calls = []
        each_block = xcorr.panel._each_block

        def counting(fn, x):
            calls.append(x.shape)
            return each_block(fn, x)

        for mod in (xcorr.panel, xcorr.surrogate, xcorr.modes):
            monkeypatch.setattr(mod, "_each_block", counting)
        build(raw, s)
        assert len(calls) == passes


def _bench_spans():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _pooled(monkeypatch):
    monkeypatch.setattr(xcorr.panel, "_HELPERS", max(xcorr.panel._HELPERS, 1))


def _four_blocks():
    """A raw C-ordered 50 x 3000 panel: row blocks of 16, 16, 16 and 2 rows."""
    x = _rows(50, 3000, seed=11) * np.random.default_rng(12).uniform(0.1, 20.0, (50, 1))
    assert x.flags.c_contiguous
    return ReturnPanel(_assets(50), x, False, 10, 60.0)


def _blocked_outputs(raw):
    s = standardize(raw)
    signs, flat = _standardized_rows(raw.returns, raw.assets, np.sign)
    built = ReturnPanel(s.assets, s.returns, True, s.bars_per_day, s.dt_seconds)
    surrogates = [apply_surrogate(s, SurrogateSpec(kind, 7)).returns for kind in KINDS]
    return [s.returns, signs, flat, built.returns, *surrogates]


class TestThreadedRowBlocks:
    """The row-block passes shared out among threads: same bits, same errors."""

    def test_pooled_matches_serial_bitwise(self, monkeypatch):
        raw = _four_blocks()
        _pooled(monkeypatch)
        pooled = _blocked_outputs(raw)
        monkeypatch.setattr(xcorr.panel, "_HELPERS", 0)
        serial = _blocked_outputs(raw)
        assert len(pooled) == len(serial) == 4 + len(KINDS)
        for got, expect in zip(pooled, serial):
            assert np.array_equal(got, expect)

    def test_helper_threads_take_blocks(self, monkeypatch):
        _pooled(monkeypatch)
        both = threading.Barrier(2, timeout=10)

        def fn(b):
            if b.start < 32:  # blocks 0 and 1 wait for each other
                both.wait()
            return b, threading.current_thread()

        out = _each_block(fn, np.zeros((50, 3)))
        assert [b for b, _ in out] == [slice(k, k + 16) for k in range(0, 64, 16)]
        assert out[0][1] is not out[1][1]

    def test_exception_in_a_helper_reaches_the_caller(self, monkeypatch):
        _pooled(monkeypatch)
        both = threading.Barrier(2, timeout=10)
        boom = RuntimeError("boom")

        def fn(b):
            if b.start < 32:
                both.wait()
                if threading.current_thread() is not threading.main_thread():
                    raise boom
            return b.start

        with pytest.raises(RuntimeError) as caught:
            _each_block(fn, np.zeros((50, 3)))
        assert caught.value is boom
        assert _each_block(lambda b: b.start, np.zeros((50, 3))) == [0, 16, 32, 48]

    def test_callers_errstate_holds_on_every_thread(self, helpers):
        # numpy keeps errstate in a context variable, so a helper that ran in
        # the pool's own context would only warn on an overflow.
        both = threading.Barrier(2, timeout=10)
        big = np.full(8, 1e300)

        def fn(k):
            if helpers and k < 2:  # items 0 and 1 run on different threads
                both.wait()
            try:
                np.multiply(big, big)
            except FloatingPointError:
                return "raised", threading.current_thread()
            return "passed", threading.current_thread()

        with np.errstate(over="raise"):
            out = _each(fn, list(range(6)))
        assert [outcome for outcome, _ in out] == ["raised"] * 6
        assert (out[0][1] is not out[1][1]) == (helpers > 0)

    def test_first_failing_block_wins(self, helpers):
        def fn(b):
            if b.start in (16, 48):
                raise ValueError(f"block at {b.start}")

        with pytest.raises(ValueError, match="block at 16"):
            _each_block(fn, np.zeros((50, 3)))

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        # More threads than cores, switching as often as the interpreter can.
        pool = ThreadPoolExecutor(6)
        monkeypatch.setattr(xcorr.panel, "_POOL", pool)
        monkeypatch.setattr(xcorr.panel, "_HELPERS", 6)
        x = np.zeros((16 * 40 + 3, 2))
        expect = list(range(0, 16 * 41, 16))
        failures = []

        def stress():
            for _ in range(100):
                runs = []
                got = _each_block(lambda b: runs.append(b.start) or b.start, x)
                if got != expect or sorted(runs) != expect:
                    failures.append((got, runs))

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

    def test_failed_pass_leaves_no_reference_cycle(self, helpers):
        # Otherwise the traceback would keep the pass's output array alive
        # until the cycle collector runs.
        x = _four_blocks().returns.copy()
        x[20] = 3.0
        r = ReturnPanel(_assets(50), x, False, 1, 60.0)
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(ValueError, match="'A20'"):
                standardize(r)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_zero_variance_row_of_the_first_failing_block_is_named(self, helpers):
        x = _four_blocks().returns.copy()
        x[20] = 3.0
        x[49] = -1.0
        with pytest.raises(ValueError, match="zero-variance series 'A20'"):
            standardize(ReturnPanel(_assets(50), x, False, 1, 60.0))

    def test_non_finite_wins_over_an_unstandardized_row_in_block_0(self, helpers):
        x = standardize(_four_blocks()).returns.copy()
        x[3] *= 2.0
        x[49, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ReturnPanel(_assets(50), x, True, 1, 60.0)

    def test_workers_call_no_public_function(self, monkeypatch):
        """A tracer that wraps the public functions and every panel
        construction, keeping one span stack, sees them all on one thread."""
        _pooled(monkeypatch)
        calls = []

        def recorded(name, fn):
            def recorder(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return recorder

        public = {}
        for mod in (xcorr.panel, xcorr.surrogate, xcorr.synth, xcorr.modes, xcorr.spectrum,
                    xcorr.mfdfa):
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    public[obj] = name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "xcorr":
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in public:
                        monkeypatch.setattr(mod, attr, recorded(public[obj], obj))
        monkeypatch.setattr(ReturnPanel, "__post_init__",
                            recorded("ReturnPanel", ReturnPanel.__post_init__))
        s = xcorr.panel.standardize(_four_blocks())
        for kind in KINDS:
            xcorr.surrogate.apply_surrogate(s, SurrogateSpec(kind, 5))
        g = xcorr.synth.generate(MarketModel(n_assets=50, t_length=500, bars_per_day=10,
                                             market_loading=0.4, vol_clustering=(0.9, 0.2)))
        xcorr.modes.remove_modes_iterative(g, 3)
        wide = ReturnPanel(_assets(433), _rows(433, 200), False, 10, 60.0)
        xcorr.spectrum.correlation_matrix(xcorr.panel.standardize(wide))  # six Gram tiles
        xcorr.mfdfa.analyze(xcorr.mfdfa.binomial_cascade(0.3, 12))  # 20 scales
        assert {"standardize", "ReturnPanel", "apply_surrogate", *KINDS, "generate",
                "remove_modes_iterative", "eigensignals", "correlation_matrix", "analyze",
                "fluctuation_surface", "segment_variances", "fluctuation"} <= {n for n, _ in calls}
        # Only the per-scale MFDFA kernels, which the traced benchmark leaves
        # unwrapped, may run on a helper thread.
        off_main = {n for n, t in calls if t is not threading.main_thread()}
        assert off_main <= _bench_spans().UNTRACED


def _frozen_f_view(x):
    """A read-only F-ordered view of a frozen C array: bar-major rows seen as
    an (N, T) panel."""
    base = np.array(x.T, order="C")
    base.setflags(write=False)
    return base.T


def _entry_panels(tmp_path):
    """A panel or price panel from every way into the library."""
    x = _rows(20, 60, seed=21)
    f = np.asfortranarray(x)
    from_f = ReturnPanel(_assets(20), f, False, 10, 60.0)
    s = standardize(from_f)
    frozen = x.copy()
    frozen.setflags(write=False)
    prices = np.asfortranarray(100.0 * np.exp(np.cumsum(x * 0.01, axis=1)))
    out = {
        "f_array": from_f,
        "frozen_f_view": ReturnPanel(_assets(20), _frozen_f_view(x), False, 10, 60.0),
        "column_window": ReturnPanel(_assets(20), frozen[:, 10:50], False, 10, 60.0),
        "price_panel": price_panel(prices, bars_per_day=10),
        "log_returns": log_returns(price_panel(prices, bars_per_day=10)),
        "standardize": s,
        "coarsen": coarsen(from_f, 2),
        "remove_modes_iterative": xcorr.modes.remove_modes_iterative(from_f, 3).panel,
    }
    for kind in KINDS:
        out[kind] = apply_surrogate(s, SurrogateSpec(kind, 3))
    export_panel(s, tmp_path / "panel.csv")
    out["panel_reader"] = ingest(str(tmp_path / "panel.csv"), "panel")
    with open(tmp_path / "wide.csv", "w") as fh:
        fh.write("t," + ",".join(_assets(20)) + "\n")
        for j in range(prices.shape[1]):
            fh.write(f"{60 * j}," + ",".join(map(repr, prices[:, j].tolist())) + "\n")
    out["wide_reader"] = ingest(str(tmp_path / "wide.csv"), "wide", bars_per_day=10)
    with open(tmp_path / "long.csv", "w") as fh:
        fh.write("t,asset,price\n")
        for j in range(prices.shape[1]):
            for i, a in enumerate(_assets(20)):
                fh.write(f"{60 * j},{a},{float(prices[i, j])!r}\n")
    out["long_reader"] = ingest(str(tmp_path / "long.csv"), "long", bars_per_day=10)
    return out


ENTRIES = ["f_array", "frozen_f_view", "column_window", "price_panel", "log_returns",
           "standardize", "coarsen", "remove_modes_iterative", *KINDS,
           "panel_reader", "wide_reader", "long_reader"]


class TestCOrderedOnEntry:
    """Every way in gives a panel whose array is C-ordered, so every row block
    of every pass is contiguous."""

    @pytest.fixture(scope="class")
    def entries(self, tmp_path_factory):
        return _entry_panels(tmp_path_factory.mktemp("entry"))

    def test_every_way_in_is_listed(self, entries):
        assert sorted(entries) == sorted(ENTRIES)

    @pytest.mark.parametrize("way", ENTRIES)
    def test_panel_is_c_contiguous(self, entries, way):
        p = entries[way]
        arr = p.prices if isinstance(p, PricePanel) else p.returns
        assert arr.flags.c_contiguous and not arr.flags.writeable


class TestAllocationPeaks:
    """Peak bytes traced while a 256 x 4096 panel is processed, over the
    panel's own bytes.  A whole-panel temporary would add 1.0 to each."""

    @pytest.fixture(scope="class")
    def raw(self):
        return ReturnPanel(_assets(256), _rows(256, 4096), False, 1, 60.0)

    def test_standardize(self, raw, peak):
        assert peak(lambda: standardize(raw), raw.returns.nbytes) <= 1.25

    def test_rotate_free(self, raw, peak):
        s = standardize(raw)
        ratio = peak(lambda: apply_surrogate(s, SurrogateSpec("rotate_free", 3)), s.returns.nbytes)
        assert ratio <= 1.25

    @pytest.mark.parametrize("kind, bound", [("rotate_daily", 1.25), ("shuffle_signs", 1.1),
                                             ("shuffle_magnitudes", 1.1)])
    def test_rotate_daily_and_shuffles(self, raw, peak, monkeypatch, kind, bound):
        # 64 bars a day make 4096 bars whole days, so nothing is trimmed; one
        # helper, as the shuffles' row temporaries are per thread.
        s = ReturnPanel(raw.assets, standardize(raw).returns, True, 64, 60.0)
        monkeypatch.setattr(xcorr.panel, "_HELPERS", 1)
        ratio = peak(lambda: apply_surrogate(s, SurrogateSpec(kind, 3)), s.returns.nbytes)
        assert ratio <= bound

    @pytest.mark.parametrize("kind", ["signs_only", "magnitudes_only"])
    def test_sign_and_magnitude_panels(self, raw, peak, kind):
        ratio = peak(lambda: apply_surrogate(raw, SurrogateSpec(kind)), raw.returns.nbytes)
        assert ratio <= 1.25

    def test_removal_pass(self, raw, peak):
        s = standardize(raw)
        z = _top_signal(s)
        assert peak(lambda: xcorr.modes._regress_out(s, z), s.returns.nbytes) <= 1.25

    # A dropped row costs no copy: the kept rows move down in place.
    @pytest.mark.parametrize("count", [0, 1])
    def test_magnitudes_only_dropping_a_row(self, raw, peak, monkeypatch, count):
        x = raw.returns.copy()
        x[100] = np.where(np.arange(x.shape[1]) % 2, 1.0, -1.0)  # a constant magnitude
        r = ReturnPanel(raw.assets, x, False, 1, 60.0)
        monkeypatch.setattr(xcorr.panel, "_HELPERS", count)
        ratio = peak(lambda: apply_surrogate(r, SurrogateSpec("magnitudes_only")), x.nbytes)
        assert ratio <= 1.25

    @pytest.mark.parametrize("count", [0, 1])
    def test_remove_mode_dropping_an_asset(self, raw, peak, monkeypatch, count):
        s = standardize(raw)
        row = s.returns[100]  # the regressor explains this asset perfectly
        z = xcorr.modes.Eigensignal(index=1, series=row, eigenvalue=row.var())
        monkeypatch.setattr(xcorr.panel, "_HELPERS", count)
        ratio = peak(lambda: remove_mode(s, z), s.returns.nbytes)
        assert ratio <= 1.45

    @pytest.mark.parametrize("from_original", [False, True])
    def test_three_removal_passes_hold_one_residual_buffer(self, raw, peak, from_original):
        s = standardize(raw)
        ratio = peak(
            lambda: xcorr.modes.remove_modes_iterative(s, 3, from_original=from_original),
            s.returns.nbytes)
        assert ratio <= 1.6

    def test_generate_builds_one_panel(self, raw, peak):
        model = MarketModel(n_assets=256, t_length=4096, bars_per_day=1, market_loading=0.4)
        assert peak(lambda: generate(model), raw.returns.nbytes) <= 1.25

    def test_generate_with_vol_clustering(self, raw, peak):
        # The (N, T) log-volatility buffer is the second panel-sized array.
        model = MarketModel(n_assets=256, t_length=4096, bars_per_day=1, market_loading=0.4,
                            vol_clustering=(0.9, 0.2))
        assert peak(lambda: generate(model), raw.returns.nbytes) <= 2.2

    def test_standardized_construction(self, raw, peak):
        s = standardize(raw)
        ratio = peak(lambda: ReturnPanel(s.assets, s.returns, True, 1, 60.0), s.returns.nbytes)
        assert ratio <= 0.25
