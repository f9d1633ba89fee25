import gc
import inspect
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import xcorr.panel
import xcorr.surrogate
import xcorr.synth
from xcorr.cli import ingest
from xcorr.modes import eigensignals, remove_mode
from xcorr.panel import (
    PricePanel,
    ReturnPanel,
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
        base = np.arange(24.0).reshape(3, 8).copy()
        base.setflags(write=False)
        view = base[:, :4]
        r = ReturnPanel(["A", "B", "C"], view, False, 4, 60.0)
        assert r.returns is view

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
        expect = (x - x.mean(1, keepdims=True)) / x.std(1, keepdims=True)
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


class TestPassCounts:
    """A construction validates in one pass over the panel; standardize and the
    sign and magnitude surrogates make one more."""

    @pytest.mark.parametrize("build, passes", [
        (lambda raw, s: ReturnPanel(s.assets, s.returns, True, 1, 60.0), 1),
        (lambda raw, s: standardize(raw), 2),
        (lambda raw, s: xcorr.surrogate.signs_only(raw), 2),
        (lambda raw, s: xcorr.surrogate.magnitudes_only(raw), 2),
    ], ids=["standardized_panel", "standardize", "signs_only", "magnitudes_only"])
    def test_passes_over_the_panel(self, monkeypatch, build, passes):
        raw = ReturnPanel(_assets(), _rows(), False, 1, 60.0)
        s = standardize(raw)
        calls = []
        each_block = xcorr.panel._each_block

        def counting(fn, x):
            calls.append(x.shape)
            return each_block(fn, x)

        monkeypatch.setattr(xcorr.panel, "_each_block", counting)
        monkeypatch.setattr(xcorr.surrogate, "_each_block", counting)
        build(raw, s)
        assert len(calls) == passes


@pytest.fixture(params=[0, 1, 3], ids=lambda h: f"helpers{h}")
def helpers(request, monkeypatch):
    """The row-block passes with 0 (serial), 1 or 3 helper threads."""
    monkeypatch.setattr(xcorr.panel, "_HELPERS", request.param)
    return request.param


def _pooled(monkeypatch):
    monkeypatch.setattr(xcorr.panel, "_HELPERS", max(xcorr.panel._HELPERS, 1))


def _four_blocks():
    """A raw C-ordered 50 x 3000 panel: row blocks of 16, 16, 16 and 2 rows."""
    x = _rows(50, 3000, seed=11) * np.random.default_rng(12).uniform(0.1, 20.0, (50, 1))
    assert x.flags.c_contiguous
    return ReturnPanel(_assets(50), x, False, 10, 60.0)


def _blocked_outputs(raw):
    s = standardize(raw)
    signs, flat = _standardized_rows(raw.returns, np.sign)
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

    def test_f_ordered_panel_is_one_block_on_the_calling_thread(self, monkeypatch):
        _pooled(monkeypatch)
        x = np.asfortranarray(np.zeros((50, 3)))
        out = _each_block(lambda b: (b, threading.current_thread()), x)
        assert out == [(slice(0, 50), threading.main_thread())]

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
        for mod in (xcorr.panel, xcorr.surrogate, xcorr.synth):
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
        assert {"standardize", "ReturnPanel", "apply_surrogate", *KINDS} <= {n for n, _ in calls}
        assert {t for _, t in calls} == {threading.main_thread()}


class TestAllocationPeaks:
    """Peak bytes traced while a 256 x 4096 panel is processed, over the
    panel's own bytes.  A whole-panel temporary would add 1.0 to each."""

    @pytest.fixture(scope="class")
    def raw(self):
        return ReturnPanel(_assets(256), _rows(256, 4096), False, 1, 60.0)

    @staticmethod
    def peak_ratio(fn, panel):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / panel.returns.nbytes

    def test_standardize(self, raw):
        assert self.peak_ratio(lambda: standardize(raw), raw) <= 1.25

    def test_rotate_free(self, raw):
        s = standardize(raw)
        ratio = self.peak_ratio(lambda: apply_surrogate(s, SurrogateSpec("rotate_free", 3)), s)
        assert ratio <= 1.25

    @pytest.mark.parametrize("kind", ["signs_only", "magnitudes_only"])
    def test_sign_and_magnitude_panels(self, raw, kind):
        ratio = self.peak_ratio(lambda: apply_surrogate(raw, SurrogateSpec(kind)), raw)
        assert ratio <= 1.25

    def test_standardized_construction(self, raw):
        s = standardize(raw)
        ratio = self.peak_ratio(lambda: ReturnPanel(s.assets, s.returns, True, 1, 60.0), s)
        assert ratio <= 0.25
