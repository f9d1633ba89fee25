import warnings

import numpy as np
import pytest

import xcorr.surrogate
from xcorr.panel import ReturnPanel, standardize
from xcorr.surrogate import (
    KINDS,
    SurrogateSpec,
    apply_surrogate,
    magnitudes_only,
    rotate_daily,
    rotate_free,
    shuffle_magnitudes,
    shuffle_signs,
    signs_only,
)

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


def _ar_row(t=4096, phi=0.5, seed=99):
    """Standardized AR(1) row with visible autocorrelation, fixed stream."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    eps = rng.standard_normal(t + 200)
    x = np.empty(t + 200)
    x[0] = eps[0]
    for i in range(1, t + 200):
        x[i] = phi * x[i - 1] + eps[i]
    tail = x[200:]
    return (tail - tail.mean()) / tail.std()


class TestSurrogateSpec:
    def test_known_kinds(self):
        for kind in KINDS:
            assert SurrogateSpec(kind=kind).seed == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown surrogate kind"):
            SurrogateSpec(kind="bootstrap")

    def test_seed_range(self):
        SurrogateSpec(kind="rotate_free", seed=2**64 - 1)
        with pytest.raises(ValueError, match="64-bit"):
            SurrogateSpec(kind="rotate_free", seed=-1)
        with pytest.raises(ValueError, match="64-bit"):
            SurrogateSpec(kind="rotate_free", seed=2**64)

    def test_seed_must_be_an_integer(self):
        # Truncated, seed=1.5 would give seed=1's surrogate.
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            SurrogateSpec(kind="rotate_free", seed=1.5)
        assert SurrogateSpec(kind="rotate_free", seed=np.int64(3)).seed == 3

    def test_to_dict(self):
        spec = SurrogateSpec(kind="shuffle_signs", seed=7)
        assert spec.to_dict() == {"kind": "shuffle_signs", "seed": 7}


@pytest.mark.parametrize("fn", [rotate_free, rotate_daily, shuffle_signs, shuffle_magnitudes])
@pytest.mark.parametrize("seed", [1.5, True, -1, 2**64, None], ids=repr)
def test_surrogate_functions_check_their_seed(panel_4x64, fn, seed):
    # The rule of SurrogateSpec: 1.5 and True would draw seed 1's surrogate,
    # -1 and 2**64 leaked an OverflowError and None a TypeError.
    with pytest.raises(ValueError, match="seed"):
        fn(panel_4x64, seed)


class TestRotateFree:
    def test_deterministic(self, panel_4x64):
        a = rotate_free(panel_4x64, 5)
        b = rotate_free(panel_4x64, 5)
        assert np.array_equal(a.returns, b.returns)

    def test_frozen_identity_seed(self):
        # At T=4 this seed draws offset 0 for both rows.
        p = _panel([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        out = rotate_free(p, 28)
        assert np.array_equal(out.returns, p.returns)

    def test_frozen_offsets_one_and_two(self):
        # At T=4 this seed draws offsets [1, 2] for rows [0, 1].
        p = _panel([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        out = rotate_free(p, 2)
        assert np.array_equal(out.returns[0], [4.0, 1.0, 2.0, 3.0])
        assert np.array_equal(out.returns[1], [7.0, 8.0, 5.0, 6.0])

    def test_preserves_value_multiset_per_row(self, panel_4x64):
        out = rotate_free(panel_4x64, 11)
        for i in range(4):
            assert np.array_equal(np.sort(out.returns[i]), np.sort(panel_4x64.returns[i]))

    def test_preserves_standardized_flag(self, panel_4x64):
        assert rotate_free(panel_4x64, 1).standardized

    def test_preserves_circular_autocorrelation_exactly(self):
        row = _ar_row()
        p = _panel([row, row], standardized=True, bpd=64)
        out = rotate_free(p, 3)
        for lag in (1, 2, 5):
            before = np.dot(row, np.roll(row, lag))
            after = np.dot(out.returns[0], np.roll(out.returns[0], lag))
            assert abs(before - after) < 1e-9

    def test_decouples_identical_rows(self):
        row = _ar_row()
        p = _panel([row, row], standardized=True, bpd=64)
        out = rotate_free(p, 1)
        assert abs(np.corrcoef(out.returns)[0, 1]) < 0.2


class TestRotateDaily:
    def test_single_day_panel_is_fixed(self, panel_4x64):
        p = ReturnPanel(
            assets=list(panel_4x64.assets),
            returns=panel_4x64.returns.copy(),
            standardized=True,
            bars_per_day=64,
            dt_seconds=60.0,
        )
        out = rotate_daily(p, 123)
        assert np.array_equal(out.returns, p.returns)
        # Past the first row block too: every row draws offset 0.
        wide = _panel(np.random.default_rng(3).standard_normal((33, 40)), bpd=40)
        for seed in (0, 1, 12345):
            assert np.array_equal(rotate_daily(wide, seed).returns, wide.returns)

    def test_day_periodic_rows_are_fixed_points(self):
        day = np.array([1.0, -2.0, 0.5, 0.5])
        p = _panel([np.tile(day, 6), np.tile(-day, 6)], bpd=4)
        for seed in (0, 1, 7):
            out = rotate_daily(p, seed)
            assert np.array_equal(out.returns, p.returns)

    def test_offsets_are_whole_days(self):
        # Rows labeled by day index stay constant within each day block.
        days = np.repeat(np.arange(8.0), 5)
        p = _panel([days, days[::-1].copy()], bpd=5)
        out = rotate_daily(p, 9)
        blocks = out.returns[0].reshape(8, 5)
        assert (blocks == blocks[:, :1]).all()

    def test_partial_day_trimmed_with_warning(self):
        rows = np.vstack([make_standard_row(np.arange(10.0) ** 1.3)] * 2)
        p = _panel(rows, standardized=True, bpd=4)
        with pytest.warns(UserWarning, match="partial day"):
            out = rotate_daily(p, 0)
        assert out.t_length == 8
        assert not out.standardized

    def test_no_trim_keeps_standardized_flag(self, panel_4x64):
        p = ReturnPanel(
            assets=list(panel_4x64.assets),
            returns=panel_4x64.returns.copy(),
            standardized=True,
            bars_per_day=8,
            dt_seconds=60.0,
        )
        assert rotate_daily(p, 4).standardized

    def test_deterministic(self, panel_4x64):
        a = rotate_daily(panel_4x64, 6)
        b = rotate_daily(panel_4x64, 6)
        assert np.array_equal(a.returns, b.returns)


class TestShuffleSigns:
    def test_all_positive_row_unchanged(self):
        p = _panel([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        out = shuffle_signs(p, 3)
        assert np.array_equal(out.returns[0], p.returns[0])

    def test_magnitudes_stay_in_place(self, panel_4x64):
        out = shuffle_signs(panel_4x64, 3)
        assert np.allclose(np.abs(out.returns), np.abs(panel_4x64.returns), atol=1e-12)

    def test_sign_multiset_preserved_per_row(self, panel_4x64):
        out = shuffle_signs(panel_4x64, 3)
        for i in range(4):
            assert np.array_equal(
                np.sort(np.sign(out.returns[i])), np.sort(np.sign(panel_4x64.returns[i]))
            )

    def test_output_not_marked_standardized(self, panel_4x64):
        assert not shuffle_signs(panel_4x64, 3).standardized

    def test_decouples_identical_rows(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([101, 0], dtype=np.uint64)))
        row = rng.standard_normal(4096)
        row[row == 0] = 0.1
        p = _panel([row, row])
        out = shuffle_signs(p, 0)
        assert abs(np.corrcoef(out.returns)[0, 1]) < 0.2

    def test_deterministic(self, panel_4x64):
        a = shuffle_signs(panel_4x64, 8)
        b = shuffle_signs(panel_4x64, 8)
        assert np.array_equal(a.returns, b.returns)


class TestShuffleMagnitudes:
    def test_equal_magnitude_row_unchanged(self):
        p = _panel([[1.0, -1.0, 1.0, -1.0, -1.0, 1.0]])
        out = shuffle_magnitudes(p, 5)
        assert np.array_equal(out.returns[0], p.returns[0])

    def test_signs_stay_in_place(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([103, 0], dtype=np.uint64)))
        rows = rng.standard_normal((3, 512))
        rows[rows == 0] = 0.5
        p = _panel(rows)
        out = shuffle_magnitudes(p, 5)
        assert np.array_equal(np.sign(out.returns), np.sign(p.returns))

    def test_magnitude_multiset_preserved_per_row(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([103, 0], dtype=np.uint64)))
        rows = rng.standard_normal((3, 512))
        rows[rows == 0] = 0.5
        p = _panel(rows)
        out = shuffle_magnitudes(p, 5)
        for i in range(3):
            assert np.allclose(
                np.sort(np.abs(out.returns[i])), np.sort(np.abs(p.returns[i])), atol=1e-12
            )

    def test_deterministic(self, panel_4x64):
        a = shuffle_magnitudes(panel_4x64, 8)
        b = shuffle_magnitudes(panel_4x64, 8)
        assert np.array_equal(a.returns, b.returns)


@pytest.mark.parametrize("kind", ["shuffle_signs", "shuffle_magnitudes"])
def test_shuffles_match_sign_magnitude_split(kind):
    # Reference: the former formula, which split the whole panel into a sign
    # panel and a magnitude panel first and permuted rows of one of them.
    rng = np.random.Generator(np.random.Philox(key=np.array([107, 0], dtype=np.uint64)))
    rows = rng.standard_normal((5, 300))
    rows[rng.random((5, 300)) < 0.2] = 0.0
    p = _panel(rows)
    seed = 11
    signs, magnitudes = np.sign(p.returns), np.abs(p.returns)
    expect = np.empty_like(rows)
    for i in range(5):
        perm = np.random.Generator(
            np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
        ).permutation(300)
        if kind == "shuffle_signs":
            expect[i] = signs[i][perm] * magnitudes[i]
        else:
            expect[i] = signs[i] * magnitudes[i][perm]
    out = apply_surrogate(p, SurrogateSpec(kind=kind, seed=seed))
    assert np.array_equal(out.returns, expect)


class TestSignsOnly:
    def test_balanced_rows_kept_exactly(self):
        rows = [[1.5, -0.2, 2.0, -3.0], [-1.0, 0.7, -0.4, 2.2]]
        p = _panel(rows)
        out = signs_only(p)
        assert np.array_equal(out.returns, np.sign(np.array(rows)))
        assert out.standardized

    def test_constant_sign_row_dropped_with_warning(self):
        p = _panel([[1.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.0, -4.0]])
        with pytest.warns(UserWarning, match="constant sign"):
            out = signs_only(p)
        assert out.assets == ["S1"]

    def test_all_rows_constant_sign_raises(self):
        p = _panel([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        with pytest.raises(ValueError, match="constant sign"), pytest.warns(UserWarning):
            signs_only(p)

    def test_idempotent_on_balanced_panel(self):
        rows = [[1.5, -0.2, 2.0, -3.0], [-1.0, 0.7, -0.4, 2.2]]
        once = signs_only(_panel(rows))
        twice = signs_only(once)
        assert np.array_equal(once.returns, twice.returns)

    def test_zero_returns_participate(self):
        p = _panel([[1.0, 0.0, -1.0, 2.0, -2.0, 0.0]])
        out = signs_only(p)
        assert out.n_assets == 1
        assert len(np.unique(out.returns[0])) == 3


class TestMagnitudesOnly:
    def test_result_is_standardized(self, panel_4x64):
        out = magnitudes_only(panel_4x64)
        assert out.standardized
        assert np.allclose(out.returns.var(axis=1), 1.0, atol=1e-10)

    def test_sign_flips_become_invisible(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([107, 0], dtype=np.uint64)))
        row = rng.standard_normal(256)
        row[row == 0] = 0.3
        flips = rng.integers(0, 2, size=256) * 2.0 - 1.0
        p = _panel([row, row * flips])
        out = magnitudes_only(p)
        assert abs(np.corrcoef(out.returns)[0, 1] - 1.0) < 1e-12

    def test_constant_magnitude_row_dropped_with_warning(self):
        p = _panel([[1.0, -1.0, 1.0, -1.0], [0.5, -2.0, 1.5, -0.1]])
        with pytest.warns(UserWarning, match="constant magnitude"):
            out = magnitudes_only(p)
        assert out.assets == ["S1"]


class TestApplySurrogate:
    def test_dispatch_matches_direct_calls(self, panel_4x64):
        direct = {
            "rotate_free": rotate_free(panel_4x64, 13),
            "rotate_daily": rotate_daily(panel_4x64, 13),
            "shuffle_signs": shuffle_signs(panel_4x64, 13),
            "shuffle_magnitudes": shuffle_magnitudes(panel_4x64, 13),
            "signs_only": signs_only(panel_4x64),
            "magnitudes_only": magnitudes_only(panel_4x64),
        }
        for kind, expected in direct.items():
            got = apply_surrogate(panel_4x64, SurrogateSpec(kind=kind, seed=13))
            assert np.array_equal(got.returns, expected.returns), kind
            assert got.assets == expected.assets, kind

    def test_deterministic_kinds_ignore_seed(self, panel_4x64):
        a = apply_surrogate(panel_4x64, SurrogateSpec(kind="signs_only", seed=1))
        b = apply_surrogate(panel_4x64, SurrogateSpec(kind="signs_only", seed=2))
        assert np.array_equal(a.returns, b.returns)


# Reference: the six surrogates as they were written before rotations shared
# one body and shuffles another, each building its panel field by field.
def _ref_panel(r, rows, standardized, assets=None):
    return ReturnPanel(
        assets=list(r.assets) if assets is None else assets,
        returns=rows,
        standardized=standardized,
        bars_per_day=r.bars_per_day,
        dt_seconds=r.dt_seconds,
    )


def _ref_rng(seed, row):
    return np.random.Generator(np.random.Philox(key=np.array([seed, row], dtype=np.uint64)))


def _ref_rotate_free(r, seed):
    rows = np.empty_like(r.returns)
    for i in range(r.n_assets):
        rows[i] = np.roll(r.returns[i], int(_ref_rng(seed, i).integers(0, r.t_length)))
    return _ref_panel(r, rows, r.standardized)


def _ref_rotate_daily(r, seed):
    bpd, t, returns, standardized = r.bars_per_day, r.t_length, r.returns, r.standardized
    if t % bpd:
        keep = (t // bpd) * bpd
        warnings.warn(f"trimming trailing partial day: {t - keep} of {t} bars dropped")
        returns, t, standardized = returns[:, :keep], keep, False
    rows = np.empty((r.n_assets, t))
    for i in range(r.n_assets):
        rows[i] = np.roll(returns[i], int(_ref_rng(seed, i).integers(0, t // bpd)) * bpd)
    return _ref_panel(r, rows, standardized)


def _ref_shuffle_signs(r, seed):
    rows = np.empty_like(r.returns)
    for i, x in enumerate(r.returns):
        rows[i] = np.sign(x)[_ref_rng(seed, i).permutation(r.t_length)] * np.abs(x)
    return _ref_panel(r, rows, False)


def _ref_shuffle_magnitudes(r, seed):
    rows = np.empty_like(r.returns)
    for i, x in enumerate(r.returns):
        rows[i] = np.sign(x) * np.abs(x)[_ref_rng(seed, i).permutation(r.t_length)]
    return _ref_panel(r, rows, False)


def _ref_replace_rows(r, rows, what):
    keep = rows.var(axis=1) > 0.0
    for name in [a for a, k in zip(r.assets, keep) if not k]:
        warnings.warn(f"asset {name} has constant {what}; dropped")
    if not keep.any():
        raise ValueError(f"every asset has a constant {what} series")
    assets = [a for a, k in zip(r.assets, keep) if k]
    return standardize(_ref_panel(r, rows[keep], False, assets))


REFERENCE = {
    "rotate_free": _ref_rotate_free,
    "rotate_daily": _ref_rotate_daily,
    "shuffle_signs": _ref_shuffle_signs,
    "shuffle_magnitudes": _ref_shuffle_magnitudes,
    "signs_only": lambda r, seed: _ref_replace_rows(r, np.sign(r.returns), "sign"),
    "magnitudes_only": lambda r, seed: _ref_replace_rows(r, np.abs(r.returns), "magnitude"),
}


def _reference_panels():
    rng = np.random.Generator(np.random.Philox(key=np.array([109, 0], dtype=np.uint64)))
    partial_day = standardize(_panel(rng.standard_normal((7, 1003)), bpd=10))
    one_bar_days = standardize(_panel(rng.standard_normal((5, 64)), bpd=1))
    # Raw, with zero returns, a partial day and an all-positive row (constant sign).
    raw = rng.standard_normal((4, 99))
    raw[rng.random((4, 99)) < 0.2] = 0.0
    raw[3] = np.abs(raw[3]) + 0.1
    zero_returns = _panel(raw, bpd=7)
    # Built from bar-major rows seen as an F-ordered (N, T) array; the panel
    # holds a C-ordered copy.
    bar_rows = rng.standard_normal((250, 6)).tolist()
    f_ordered = standardize(_panel(np.array(bar_rows).T, bpd=20))
    assert f_ordered.returns.flags.c_contiguous
    # 33 rows: two full row blocks and a partial one.  The C-ordered panel is
    # raw, with zero returns, a partial day and a constant-sign row past the
    # first block; the one from bar-major rows is standardized.
    raw = rng.standard_normal((33, 203))
    raw[rng.random((33, 203)) < 0.1] = 0.0
    raw[20] = np.abs(raw[20]) + 0.1
    c_blocks = _panel(raw, bpd=10)
    assert c_blocks.returns.flags.c_contiguous
    f_blocks = standardize(_panel(np.array(rng.standard_normal((240, 33)).tolist()).T, bpd=24))
    assert f_blocks.returns.flags.c_contiguous
    # 40 rows: row blocks of 16, 16 and 8, which the helper threads share.
    wide_blocks = standardize(_panel(rng.standard_normal((40, 1003)), bpd=10))
    assert wide_blocks.returns.flags.c_contiguous
    return {"partial_day": partial_day, "one_bar_days": one_bar_days,
            "zero_returns": zero_returns, "f_ordered": f_ordered,
            "c_blocks": c_blocks, "f_blocks": f_blocks, "wide_blocks": wide_blocks}


def _run_recording(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize("panel_name", ["partial_day", "one_bar_days", "zero_returns",
                                        "f_ordered", "c_blocks", "f_blocks", "wide_blocks"])
@pytest.mark.parametrize("kind", KINDS)
def test_surrogates_match_reference(kind, panel_name):
    p = _reference_panels()[panel_name]
    for seed in (0, 1, 12345):
        expect, expect_warnings = _run_recording(REFERENCE[kind], p, seed)
        got, got_warnings = _run_recording(apply_surrogate, p, SurrogateSpec(kind=kind, seed=seed))
        assert np.array_equal(got.returns, expect.returns)
        assert got.standardized == expect.standardized
        assert got.assets == expect.assets
        assert (got.bars_per_day, got.dt_seconds) == (expect.bars_per_day, expect.dt_seconds)
        assert got_warnings == expect_warnings


@pytest.mark.parametrize("kind", KINDS)
def test_apply_surrogate_dispatches_through_module_names(kind, panel_4x64, monkeypatch):
    # Profilers and the benchmark's per-kind spans replace these names in the
    # module namespace; dispatch must look them up at call time.
    calls = []
    original = getattr(xcorr.surrogate, kind)

    def recorder(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(xcorr.surrogate, kind, recorder)
    apply_surrogate(panel_4x64, SurrogateSpec(kind=kind, seed=4))
    assert len(calls) == 1
    assert calls[0][0] is panel_4x64
