import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import xcorr.cli
import xcorr.mfdfa
import xcorr.modes
import xcorr.synth
from xcorr.cli import export_panel, ingest, main
from xcorr.modes import remove_modes_iterative
from xcorr.panel import PricePanel, ReturnPanel, log_returns, standardize
from xcorr.spectrum import correlation_matrix, eigendecompose, mp_bounds, overlap_fraction
from xcorr.synth import MarketModel, generate


@pytest.fixture
def panel_file(tmp_path, panel_4x64):
    path = tmp_path / "panel.csv"
    export_panel(panel_4x64, path)
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


@contextlib.contextmanager
def _holding(lock):
    """Hold the run lock `lock` of an output directory, as a live run does."""
    if xcorr.cli.fcntl is None:
        lock.write_text("")
        yield
        return
    with open(lock, "w") as fh:
        xcorr.cli.fcntl.flock(fh, xcorr.cli.fcntl.LOCK_EX)
        yield


def _reference_export(r, path, extra_comments=()):
    """The value-at-a-time panel writer export_panel must match byte for byte."""
    with open(path, "w", newline="") as fh:
        fh.write("# xcorr-panel-v1\n")
        fh.write(f"# standardized: {'true' if r.standardized else 'false'}\n")
        fh.write(f"# bars_per_day: {r.bars_per_day}\n")
        fh.write(f"# dt_seconds: {float(r.dt_seconds)!r}\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        fh.write("bar," + ",".join(str(a) for a in r.assets) + "\n")
        cols = r.returns.T
        for j in range(r.t_length):
            fh.write(str(j) + "," + ",".join(repr(float(x)) for x in cols[j]) + "\n")


class TestOrjsonFloatText:
    """export_panel writes a bar with orjson only when each of its values is
    +-0.0 or lies in 1e-4 <= |v| < 1e16: there orjson's text must be repr()'s,
    digit for digit and in the same notation."""

    @staticmethod
    def _check(values):
        values = np.asarray(values, dtype=float)
        a = np.abs(values)
        assert (((a >= 1e-4) & (a < 1e16)) | (a == 0.0)).all()
        text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
        want = [repr(v).encode() for v in values.tolist()]
        bad = [(w, t) for w, t in zip(want, text) if w != t]
        assert len(text) == len(want) and not bad, bad[:5]

    def test_random_bit_patterns(self):
        # Every mantissa bit pattern, under each binary exponent in range.
        rng = np.random.default_rng(11)
        n = 200_000
        exponent = rng.integers(1023 - 14, 1023 + 54, n, dtype=np.uint64)
        bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
                | exponent << np.uint64(52)
                | rng.integers(0, 1 << 52, n, dtype=np.uint64))
        v = bits.view(np.float64)
        a = np.abs(v)
        self._check(v[(a >= 1e-4) & (a < 1e16)])

    def test_log_uniform_decades(self):
        rng = np.random.default_rng(12)
        v = 10.0 ** rng.uniform(-4, 16, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        self._check(v[np.abs(v) < 1e16])

    def test_short_decimals(self):
        # Few significant digits: trailing '.0', and no exponent up to 1e15.
        digits = np.arange(1, 1000, dtype=float)
        self._check(np.concatenate([digits * 10.0 ** e for e in range(-4, 13)]))

    def test_boundary_values(self):
        top = np.nextafter(1e16, 0)
        powers = 2.0 ** np.arange(-13, 54)
        self._check([1e-4, np.nextafter(1e-4, 1), top, -top, 1e15, np.nextafter(1e15, 0),
                     np.nextafter(1e15, 2e15), 0.0, -0.0, -1e-4, *powers, *-powers])

    def test_the_other_notations_take_repr(self, tmp_path):
        # The values just outside the range, where orjson's notation differs.
        rows = np.array([[1e-5, 1e16, np.nextafter(1e-4, 0)], [0.5, 2.0, -0.0]])
        p = _panel(rows, bars_per_day=3)
        export_panel(p, tmp_path / "new.csv")
        _reference_export(p, tmp_path / "ref.csv")
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "ref.csv")
        assert _read(tmp_path / "new.csv").endswith(
            b"0,1e-05,0.5\n1,1e+16,2.0\n2,9.999999999999999e-05,-0.0\n")


def _reference_forward_fill(row):
    row = row.copy()
    for j in range(1, row.size):
        if np.isnan(row[j]):
            row[j] = row[j - 1]
    return row


EDGE_ROWS = np.array([
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308],
    [0.1 + 0.2, 1 / 3, -3.7e300, 1e-17, 123456789.12345679],
])


def _panel(rows, bars_per_day=1):
    return ReturnPanel(assets=[f"S{i}" for i in range(len(rows))], returns=rows,
                       standardized=False, bars_per_day=bars_per_day, dt_seconds=30.0)


class TestPanelRoundTrip:
    def test_bit_identical_round_trip(self, panel_file, panel_4x64):
        back = ingest(panel_file, "panel")
        assert isinstance(back, ReturnPanel)
        assert np.array_equal(back.returns, panel_4x64.returns)
        assert back.assets == list(panel_4x64.assets)
        assert back.standardized
        assert back.bars_per_day == 8
        assert back.dt_seconds == 60.0

    def test_awkward_floats_survive(self, tmp_path):
        path = tmp_path / "odd.csv"
        export_panel(_panel(EDGE_ROWS), path)
        back = ingest(str(path), "panel")
        assert np.array_equal(back.returns, EDGE_ROWS)
        assert np.array_equal(np.signbit(back.returns), np.signbit(EDGE_ROWS))
        assert back.returns.tobytes() == EDGE_ROWS.tobytes()

    @pytest.mark.parametrize("t_length", [64, 1023, 1024, 1025, 2500])
    def test_bytes_match_reference_writer(self, tmp_path, t_length):
        rng = np.random.default_rng(t_length)
        rows = rng.standard_normal((3, t_length)) * 10.0 ** rng.integers(-300, 300, (3, t_length))
        rows[:2, :5] = EDGE_ROWS
        p = _panel(rows, bars_per_day=t_length)
        export_panel(p, tmp_path / "new.csv", extra_comments=["config_hash: abc"])
        _reference_export(p, tmp_path / "ref.csv", extra_comments=["config_hash: abc"])
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "ref.csv")

    @pytest.mark.parametrize("count", [0, 1])
    def test_bytes_match_reference_writer_with_both_kinds_of_bar(self, tmp_path, monkeypatch,
                                                                 count):
        # A standardized panel in which some bars hold a value orjson would
        # write in another notation (3e-05, 2e+16): those bars take repr(),
        # the rest orjson, interleaved within blocks and across both parts.
        rng = np.random.default_rng(31)
        x = standardize(_panel(rng.standard_normal((30, 2600)))).returns.copy()
        x[rng.integers(0, 30, 40), rng.integers(0, 2600, 40)] = 3e-5
        x[rng.integers(0, 30, 40), rng.integers(0, 2600, 40)] = -2e16
        a = np.abs(x)
        plain = ((a >= 1e-4) & (a < 1e16)).all(axis=0)
        assert 0 < (~plain).sum() < plain.sum()
        assert (~plain[1300:]).any() and (~plain[:128]).any()
        monkeypatch.setattr(xcorr.panel, "_HELPERS", count)
        p = _panel(x, bars_per_day=26)
        export_panel(p, tmp_path / "new.csv")
        _reference_export(p, tmp_path / "ref.csv")
        assert _read(tmp_path / "new.csv") == _read(tmp_path / "ref.csv")

    def test_read_back_is_c_contiguous(self, panel_file):
        # Every row block of a panel is contiguous, so a panel read from a
        # file gives the bits of the same panel held in memory.
        back = ingest(panel_file, "panel")
        assert back.returns.flags.c_contiguous and not back.returns.flags.f_contiguous

    def test_read_back_shares_no_writable_memory(self, panel_file):
        # The reader builds one C-ordered array, which the panel takes as it
        # is: the panel owns it and nothing can write to it.
        back = ingest(panel_file, "panel")
        assert back.returns.base is None and back.returns.flags.owndata
        assert not back.returns.flags.writeable
        assert back.returns.flags.c_contiguous

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(arrays(np.float64,
                  st.tuples(st.integers(1, 4), st.integers(2, 12)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_round_trip_property(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prop.csv")
            export_panel(_panel(rows), path)
            back = ingest(path, "panel")
        assert back.returns.tobytes() == rows.tobytes()
        assert back.returns.flags.c_contiguous

    def test_crlf_file_reads_the_same(self, panel_file, tmp_path):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(_read(panel_file).replace(b"\n", b"\r\n"))
        want = ingest(panel_file, "panel")
        back = ingest(str(crlf), "panel")
        assert back.assets == want.assets == ["A", "B", "C", "D"]
        assert back.returns.tobytes() == want.returns.tobytes()
        assert (back.standardized, back.bars_per_day, back.dt_seconds) == (True, 8, 60.0)

    def test_extra_comments_are_ignored(self, tmp_path, panel_4x64):
        path = tmp_path / "extra.csv"
        export_panel(panel_4x64, path, extra_comments=["config_hash: abc", "note: hello"])
        back = ingest(str(path), "panel")
        assert np.array_equal(back.returns, panel_4x64.returns)

    def test_metadata_after_the_header_is_a_comment(self, tmp_path):
        rng = np.random.default_rng(3)
        r = standardize(_panel(rng.standard_normal((3, 40)), bars_per_day=10))
        path = tmp_path / "late.csv"
        export_panel(r, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[20:20] = ["# bars_per_day: 4\n", "# standardized: false\n"]
        path.write_text("".join(lines))
        back = ingest(str(path), "panel")
        assert (back.bars_per_day, back.standardized) == (10, True)
        assert back.returns.tobytes() == r.returns.tobytes()

    def test_magic_header_required(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("bar,A,B\n0,1.0,2.0\n1,2.0,3.0\n")
        with pytest.raises(ValueError, match="not a xcorr-panel-v1"):
            ingest(str(path), "panel")

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("# xcorr-panel-v1\nbar,A,B\n0,1.0,2.0\n1,2.0\n")
        with pytest.raises(ValueError, match="line 4"):
            ingest(str(path), "panel")

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# xcorr-panel-v1\nbar,A\n0,1.0\n1,oops\n")
        with pytest.raises(ValueError, match="line 4"):
            ingest(str(path), "panel")

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "", "0x10"])
    def test_token_numpy_rejects_names_line(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"# xcorr-panel-v1\nbar,A,B\n0,1.0,2.0\n1,3.0,{token}\n2,1.5,2.5\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="^line 4: unparseable value in panel file$"):
            ingest(str(path), "panel")

    def test_bad_line_after_comment_and_blank_lines_names_file_line(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("# xcorr-panel-v1\nbar,A,B\n0,1.0,2.0\n# note\n\n"
                        "1,2.0,3.0\n2,1_0,4.0\n3,5.0,6.0\n")
        with pytest.raises(ValueError, match="^line 7: unparseable value"):
            ingest(str(path), "panel")

    def test_extra_field_names_line(self, tmp_path):
        path = tmp_path / "wide_row.csv"
        path.write_text("# xcorr-panel-v1\nbar,A,B\n0,1.0,2.0\n\n1,2.0,3.0,4.0\n")
        with pytest.raises(ValueError, match="^line 5: expected 3 fields, got 4$"):
            ingest(str(path), "panel")

    def test_duplicate_asset_name_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("# xcorr-panel-v1\nbar,A,A,B\n0,1.0,2.0,3.0\n1,2.0,1.0,0.5\n")
        with pytest.raises(ValueError, match="duplicate asset name 'A'"):
            ingest(str(path), "panel")

    @pytest.mark.parametrize("key, value", [
        ("bars_per_day", "ten"),
        ("bars_per_day", "2.5"),
        ("standardized", "yes"),
        ("standardized", "True"),
        ("dt_seconds", "soon"),
        ("dt_seconds", "inf"),
        ("dt_seconds", "nan"),
        ("dt_seconds", "0"),
        ("dt_seconds", "-1"),
    ])
    def test_bad_header_value_names_file_and_key(self, tmp_path, key, value):
        path = tmp_path / "header.csv"
        path.write_text(f"# xcorr-panel-v1\n# {key}: {value}\nbar,A\n0,1.0\n1,2.0\n")
        with pytest.raises(ValueError) as exc:
            ingest(str(path), "panel")
        assert str(path) in str(exc.value) and key in str(exc.value)
        assert repr(value) in str(exc.value)

    def test_empty_panel_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# xcorr-panel-v1\nbar,A\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest(str(path), "panel")


class TestWideIngest:
    def test_fixture_round_trip(self, prices_small_path):
        p = ingest(prices_small_path, "wide", bars_per_day=4)
        assert isinstance(p, PricePanel)
        assert p.assets == ["AAA", "BBB", "CCC"]
        assert p.prices.shape == (3, 9)
        assert p.timestamps[0] == 0.0 and p.timestamps[-1] == 2400.0
        r = log_returns(p)
        assert r.t_length == 8

    def test_forward_fill_small_gap(self, tmp_path):
        lines = ["t,A,B"]
        for j in range(21):
            b = "" if j == 10 else f"{50.0 + j}"
            lines.append(f"{j * 60},{100.0 + j},{b}")
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="forward-filled 1"):
            p = ingest(str(path), "wide", bars_per_day=3)
        assert p.prices[1, 10] == p.prices[1, 9]

    def test_large_gap_drops_asset(self, tmp_path):
        lines = ["t,A,B"]
        for j in range(9):
            b = "" if j in (3, 5) else f"{50.0 + j}"
            lines.append(f"{j * 60},{100.0 + j},{b}")
        path = tmp_path / "holes.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="dropped"):
            p = ingest(str(path), "wide", bars_per_day=3)
        assert p.assets == ["A"]

    def test_leading_gap_is_an_error(self, tmp_path):
        lines = ["t,A,B"]
        for j in range(21):
            b = "" if j == 0 else f"{50.0 + j}"
            lines.append(f"{j * 60},{100.0 + j},{b}")
        path = tmp_path / "lead.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="first bar"):
            ingest(str(path), "wide", bars_per_day=3)

    def test_duplicate_asset_name_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("timestamp,A,A,B\n0,100,101,50\n60,101,102,51\n")
        with pytest.raises(ValueError, match="duplicate asset name 'A'"):
            ingest(str(path), "wide", bars_per_day=1)

    def test_forward_fill_matches_the_bar_loop(self):
        rng = np.random.default_rng(5)
        prices = 100.0 + rng.random((6, 400))
        for i in range(prices.shape[0]):
            gaps = rng.choice(np.arange(1, 400), size=12, replace=False)
            prices[i, gaps] = np.nan
        prices[0, 397:] = np.nan          # a run of gaps up to the last bar
        prices[1, 1:6] = np.nan           # a run right after the first bar
        want = np.array([_reference_forward_fill(row) for row in prices])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            filled = prices.copy()
            got = xcorr.cli._price_panel(filled, list("ABCDEF"), 60.0 * np.arange(400), 1)
        assert got.assets == list("ABCDEF")
        assert got.prices.tobytes() == want.tobytes()
        assert got.prices is filled  # filled in place, and taken without a copy

    def test_header_without_rows_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "hdr_only.csv"
        path.write_text("timestamp,A,B\n")
        with pytest.raises(ValueError, match="no data rows in"):
            ingest(str(path), "wide", bars_per_day=1)
        rc = main(["spectrum", "--input", str(path), "--format", "wide",
                   "--bars-per-day", "1", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert err["error"] == f"no data rows in {path}"

    def test_infinite_price_names_asset_and_bar(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("t,A,B\n0,100,50\n60,101,inf\n120,102,52\n")
        with pytest.raises(ValueError, match="non-finite price for asset 'B' at bar 1: inf"):
            ingest(str(path), "wide", bars_per_day=1)
        out = tmp_path / "out"
        rc = main(["spectrum", "--input", str(path), "--format", "wide",
                   "--bars-per-day", "1", "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "asset 'B' at bar 1" in err["error"]
        assert not out.exists()

    def test_unparseable_price_names_line_and_asset(self, tmp_path):
        path = tmp_path / "badprice.csv"
        path.write_text("t,A\n0,100\n60,abc\n")
        with pytest.raises(ValueError, match="line 3.*'abc' for A"):
            ingest(str(path), "wide", bars_per_day=1)


class TestLongIngest:
    def test_pivot_with_first_appearance_order(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(
            "t,asset,price\n"
            "0,B,50\n0,A,100\n"
            "60,B,51\n60,A,101\n"
            "120,B,52\n120,A,102\n"
        )
        p = ingest(str(path), "long", bars_per_day=3)
        assert p.assets == ["B", "A"]
        assert np.array_equal(p.prices[0], [50.0, 51.0, 52.0])
        assert np.array_equal(p.prices[1], [100.0, 101.0, 102.0])

    def test_duplicate_record_names_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,asset,price\n0,A,100\n0,A,101\n60,A,102\n")
        with pytest.raises(ValueError, match="line 3.*duplicate"):
            ingest(str(path), "long", bars_per_day=1)

    @pytest.mark.parametrize("first, second", [("nan", "101"), ("101", "nan"),
                                               ("nan", "nan")])
    def test_duplicate_of_a_nan_price_names_line(self, tmp_path, first, second):
        path = tmp_path / "dup.csv"
        path.write_text(f"t,asset,price\n0,A,{first}\n0,A,{second}\n60,A,102\n")
        with pytest.raises(ValueError, match="line 3.*duplicate"):
            ingest(str(path), "long", bars_per_day=1)

    @pytest.mark.parametrize("rows, message", [
        # (60, B) repeats on line 6, but (0, A) already on line 5.
        ("60,B,1\n0,A,1\n60,A,2\n0,A,3\n60,B,4\n0,B,5\n",
         "line 5: duplicate (timestamp, asset) = (0.0, A)"),
        ("0,A,1\n60,A,2\n0,A,3\n0,A,4\n", "line 4: duplicate (timestamp, asset) = (0.0, A)"),
        ("0,A,1\n0,A,2\nx,A,3\n", "line 3: duplicate (timestamp, asset) = (0.0, A)"),
        ("0,A,1\nx,A,2\n0,A,3\n", "line 3: unparseable timestamp 'x'"),
    ], ids=["earliest-repeat", "third-occurrence", "before-a-bad-line", "after-a-bad-line"])
    def test_first_duplicate_or_bad_line_is_reported(self, tmp_path, rows, message):
        path = tmp_path / "dup.csv"
        path.write_text("t,asset,price\n" + rows)
        with pytest.raises(ValueError) as exc:
            ingest(str(path), "long", bars_per_day=1)
        assert str(exc.value) == message

    def test_missing_combination_forward_filled(self, tmp_path):
        lines = ["t,asset,price"]
        for j in range(21):
            lines.append(f"{j * 60},A,{100.0 + j}")
            if j != 7:
                lines.append(f"{j * 60},B,{50.0 + j}")
        path = tmp_path / "sparse.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="forward-filled"):
            p = ingest(str(path), "long", bars_per_day=3)
        assert p.prices[1, 7] == p.prices[1, 6]

    def test_blank_price_is_a_gap(self, tmp_path):
        # The same prices as a wide file, B blank at bar 10 in both.
        wide, long = ["t,A,B"], ["t,asset,price"]
        for j in range(21):
            b = "" if j == 10 else f"{50.0 + j}"
            wide.append(f"{j * 60},{100.0 + j},{b}")
            long += [f"{j * 60},A,{100.0 + j}", f"{j * 60},B,{b}"]
        got = {}
        for fmt, lines in (("wide", wide), ("long", long)):
            path = tmp_path / f"{fmt}.csv"
            path.write_text("\n".join(lines) + "\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                p = ingest(str(path), fmt, bars_per_day=3)
            got[fmt] = (p.assets, list(p.timestamps), p.prices.tobytes(),
                        [str(w.message) for w in caught])
        assert got["long"] == got["wide"]
        assert got["long"][-1] == ["asset B: forward-filled 1 missing bar(s)"]

    @pytest.mark.parametrize("row, message", [
        ("0,A,abc", "line 2: unparseable price 'abc' for A"),
        ("soon,A,100", "line 2: unparseable timestamp 'soon'"),
    ])
    def test_unparseable_field_names_line_and_token(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,asset,price\n{row}\n60,A,102\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ingest(str(path), "long", bars_per_day=1)

    def test_wrong_arity_row_rejected(self, tmp_path):
        path = tmp_path / "arity.csv"
        path.write_text("t,asset,price\n0,A\n")
        with pytest.raises(ValueError, match="timestamp,asset,price"):
            ingest(str(path), "long", bars_per_day=1)

    def test_unknown_format_rejected(self, prices_small_path):
        with pytest.raises(ValueError, match="unknown format"):
            ingest(prices_small_path, "parquet")

    def test_missing_file_rejected(self):
        with pytest.raises(ValueError, match="not found"):
            ingest("/nonexistent/file.csv", "panel")


class TestNumberSyntax:
    """Price files and panel header numbers take the panel reader's number
    syntax: forms only Python's int() and float() take, such as '1_0' or
    non-ASCII digits, are errors that name the line or the header."""

    WIDE = "t,A,B\n0,100.0,50.0\n120,{cell},51.0\n{stamp},102.0,52.0\n"

    @pytest.mark.parametrize("quoted", [False, True], ids=["byte-range", "csv"])
    @pytest.mark.parametrize("cell, stamp, message", [
        ("1_00.4", "240", "line 3: unparseable price '1_00.4' for A"),
        ("١٠٠.٤", "240", "line 3: unparseable price '١٠٠.٤' for A"),
        ("101.0", "2_40.0", "line 4: unparseable timestamp '2_40.0'"),
    ])
    def test_wide(self, tmp_path, quoted, cell, stamp, message):
        text = self.WIDE.format(cell=cell, stamp=stamp)
        path = tmp_path / "wide.csv"
        path.write_text('"t"' + text[1:] if quoted else text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ingest(str(path), "wide", bars_per_day=1)

    @pytest.mark.parametrize("quoted", [False, True], ids=["byte-range", "csv"])
    def test_wide_gaps_and_outer_whitespace_still_read(self, tmp_path, quoted):
        # numpy's parser strips non-ASCII whitespace too; a blank or nan cell is a gap.
        text = "t,A,B\n0,100.0,50.0\n120,\u00a0101.0\u2003,\n240,102.0,nan\n360,103.0,53.0\n"
        path = tmp_path / "wide.csv"
        path.write_text('"t"' + text[1:] if quoted else text, encoding="utf-8")
        with pytest.warns(UserWarning, match="asset B missing 2/4 bars"):
            p = ingest(str(path), "wide", bars_per_day=1)
        assert p.assets == ["A"] and p.prices.tolist() == [[100.0, 101.0, 102.0, 103.0]]

    @pytest.mark.parametrize("row, message", [
        ("60,A,1_00.5", "line 3: unparseable price '1_00.5' for A"),
        ("6_0,A,101", "line 3: unparseable timestamp '6_0'"),
    ])
    def test_long(self, tmp_path, row, message):
        path = tmp_path / "long.csv"
        path.write_text(f"t,asset,price\n0,A,100\n{row}\n120,A,102\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ingest(str(path), "long", bars_per_day=1)

    @pytest.mark.parametrize("key, value, what", [
        ("bars_per_day", "1_00", "a positive integer"),
        ("bars_per_day", "١٠", "a positive integer"),
        ("dt_seconds", "6_0.0", "a finite positive number"),
    ])
    def test_panel_header(self, tmp_path, key, value, what):
        path = tmp_path / "panel.csv"
        path.write_text(f"# xcorr-panel-v1\n# {key}: {value}\nbar,A\n0,1.0\n1,2.0\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            ingest(str(path), "panel")
        assert str(exc.value) == f"{path}: header {key!r} must be {what}, got {value!r}"


class TestFlagNumberSyntax:
    """Flags, list flags, XCORR_SEED and config-file strings take the file
    readers' number syntax too: '1_0' or non-ASCII digits are errors naming
    the flag, a list item may not be blank, and a run that fails leaves no
    --out."""

    @pytest.mark.parametrize("argv, message", [
        (["elements", "--bins", "5_0"], "argument --bins: invalid int value: '5_0'"),
        (["mfdfa", "--detrend-order", "1_0"],
         "argument --detrend-order: invalid int value: '1_0'"),
        (["elements", "--q-target", "2_0"], "argument --q-target: invalid float value: '2_0'"),
        (["spectrum", "--seed", "١٧"], "argument --seed: invalid int value: '١٧'"),
    ], ids=["bins", "detrend-order", "q-target", "seed"])
    def test_number_flag_exits_2(self, panel_file, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", panel_file, "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, env, flag", [
        (["spectrum"], "1_7", "XCORR_SEED must be an integer, got '1_7'"),
        (["report", "--factors", "1_0"], None, "--factors"),
        (["report", "--factors", "1,,2,"], None, "--factors"),
        (["report", "--factors", "1,2,"], None, "--factors"),
        (["mfdfa", "--q-grid=-4:4:0_2"], None, "--q-grid"),
        (["mfdfa", "--q-grid=-4::4:0.2"], None, "--q-grid"),
        (["mfdfa", "--scales", "١٦,32,64,128,256"], None, "--scales"),
        (["mfdfa", "--scales", "1_6:400:8"], None, "--scales"),
        (["mfdfa", "--scales", "16,32,64,128,256,"], None, "--scales"),
        (["mfdfa", "--scales", "400:16:8"], None,
         "--scales 'min:max:count' needs min < max, got '400:16:8'"),
        (["mfdfa", "--scales", "16:16:8"], None, "--scales"),
    ], ids=["env-seed", "factors", "factors-blank", "factors-trailing", "q-grid",
            "q-grid-blank", "scales-digits", "scales-underscore", "scales-trailing",
            "scales-reversed", "scales-equal"])
    def test_list_flag_or_env_is_a_named_error(self, panel_file, tmp_path, monkeypatch, capsys,
                                               argv, env, flag):
        if env is not None:
            monkeypatch.setenv("XCORR_SEED", env)
        out = tmp_path / "out"
        assert main([*argv, "--input", panel_file, "--out", str(out)]) == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert flag in err["error"]
        assert not out.exists()

    def test_config_file_string(self, panel_file, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"factors": "1,2_0"}))
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--input", panel_file,
                     "--out", str(out)]) == 1
        assert _stderr_json(capsys)["error"] == (
            "--factors must be a comma list of positive integers, got '1,2_0'")
        assert not out.exists()

    def test_whitespace_signs_and_exponents_read_as_before(self, panel_file, tmp_path,
                                                           monkeypatch):
        monkeypatch.setenv("XCORR_SEED", " 17 ")
        out = tmp_path / "out"
        assert main(["report", "--bins", " +50 ", "--factors", " 1 ,+2", "--input", panel_file,
                     "--out", str(out)]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert (echoed["seed"], echoed["bins"], echoed["factors"]) == (17, 50, " 1 ,+2")
        payload = json.loads((out / "report.json").read_text())
        assert [f for f, _ in payload["lambda1_vs_coarsening"]] == [1, 2]
        assert main(["elements", "--q-target", " 2e0 ", "--input", panel_file,
                     "--out", str(tmp_path / "q")]) == 0
        assert json.loads((tmp_path / "q" / "config.json").read_text())["q_target"] == 2.0
        parse = xcorr.cli._parse_scales
        assert parse(" 16 :+400: 8").tolist() == parse("16:400:8").tolist()
        parse = xcorr.cli._parse_q_grid
        assert parse(" -4:4e0:+0.2").tolist() == parse("-4:4:0.2").tolist()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nan_and_inf_reach_the_bound_check(self, panel_file, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["elements", f"--q-target={value}", "--input", panel_file,
                     "--out", str(out)]) == 1
        assert _stderr_json(capsys)["error"] == f"--q-target must be finite, got {float(value)!r}"
        assert not out.exists()


def _wide_text(header, rows=10):
    return header + "\n" + "".join(
        f"{j * 60},{100 + j},{50 + j}{',7' if header.count(',') == 3 else ''}\n"
        for j in range(rows))


_RUNS_PAST = "line {}: malformed CSV record: a quoted field runs past the end of its line"


class TestAssetNames:
    """An asset name a panel CSV header cannot carry is an input error."""

    @pytest.mark.parametrize("fmt, text, message", [
        ("wide", _wide_text('timestamp,"A,1",B,'), "line 1: asset name 'A,1' contains ','"),
        ("wide", _wide_text("timestamp,A,B,"), "line 1: asset name '' is empty"),
        # A quoted field may not hold a line end, so no name can.
        ("wide", _wide_text('timestamp,A,"B\nC"'), _RUNS_PAST.format(1)),
        ("wide", _wide_text('timestamp,A,"B\rC"'), _RUNS_PAST.format(1)),
        ("wide", _wide_text("timestamp,A, A "), "line 1: duplicate asset name 'A'"),
        ("long", 't,asset,price\n0,A,100\n0,"B,2",50\n60,A,101\n',
         "line 3: asset name 'B,2' contains ','"),
        ("long", "t,asset,price\n0,A,100\n0, ,50\n60,A,101\n", "line 3: asset name '' is empty"),
        ("panel", "# xcorr-panel-v1\nbar,A,B,\n0,1.0,2.0,3.0\n1,2.0,1.0,0.5\n",
         "line 2: asset name '' is empty"),
        ("panel", "# xcorr-panel-v1\nbar,A,,B\n0,1.0,2.0,3.0\n1,2.0,1.0,0.5\n",
         "line 2: asset name '' is empty"),
    ], ids=["wide-comma", "wide-empty", "wide-newline", "wide-cr", "wide-duplicate",
            "long-comma", "long-empty", "panel-trailing", "panel-empty"])
    def test_remove_exits_1_with_no_out(self, tmp_path, capsys, fmt, text, message):
        path = tmp_path / "in.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        out = tmp_path / "out"
        argv = ["remove", "--input", str(path), "--format", fmt, "--out", str(out)]
        if fmt != "panel":
            argv += ["--bars-per-day", "10"]
        assert main(argv) == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert err["error"].removeprefix(f"{path}: ").startswith(message), err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("name", ["A,1", "", "B\n", "C\r"])
    def test_export_rejects_name_before_opening_the_file(self, tmp_path, panel_4x64, name):
        r = ReturnPanel(assets=["X", name, "Y", "Z"], returns=panel_4x64.returns,
                        standardized=True, bars_per_day=8, dt_seconds=60.0)
        path = tmp_path / "panel.csv"
        with pytest.raises(ValueError) as exc:
            export_panel(r, path)
        assert str(exc.value).startswith(f"panel file {path}: asset name {name!r}")
        assert not path.exists()

    def test_export_rejects_duplicate_name(self, tmp_path, panel_4x64):
        r = ReturnPanel(assets=["X", "Y", "X", "Z"], returns=panel_4x64.returns,
                        standardized=True, bars_per_day=8, dt_seconds=60.0)
        with pytest.raises(ValueError, match="duplicate asset name 'X'"):
            export_panel(r, tmp_path / "panel.csv")
        assert not (tmp_path / "panel.csv").exists()


class TestMainSpectrum:
    def test_artifacts_and_consistency(self, panel_file, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--input", panel_file, "--out", str(out)]) == 0
        for name in ("config.json", "spectrum.json", "fig2a-analogue.txt"):
            assert (out / name).exists()
        spec = json.loads((out / "spectrum.json").read_text())
        assert spec["n_series"] == 4 and spec["t_length"] == 64
        vals = spec["eigenvalues"]
        assert sorted(vals, reverse=True) == vals
        assert abs(sum(vals) - 4.0) < 1e-8
        assert spec["mp"]["q"] == 16.0
        assert 0.0 <= spec["overlap_fraction"] <= 1.0
        lines = (out / "fig2a-analogue.txt").read_text().splitlines()
        assert lines[0] == "# fig2a-analogue"
        assert lines[1] == f"# config_hash: {spec['config_hash']}"
        assert len(lines) == 3 + 4

    def test_byte_identical_reruns(self, panel_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--input", panel_file, "--out", str(a)]) == 0
        assert main(["spectrum", "--input", panel_file, "--out", str(b)]) == 0
        for name in ("config.json", "spectrum.json", "fig2a-analogue.txt"):
            assert _read(a / name) == _read(b / name), name

    def test_no_lock_left_behind(self, panel_file, tmp_path):
        out = tmp_path / "out"
        main(["spectrum", "--input", panel_file, "--out", str(out)])
        assert not (out / ".xcorr-lock").exists()


class TestMainElements:
    def test_full_panel_histogram(self, panel_file, tmp_path):
        out = tmp_path / "out"
        assert main(["elements", "--input", panel_file, "--bins", "12", "--out", str(out)]) == 0
        payload = json.loads((out / "elements.json").read_text())
        assert payload["n_entries"] == 6
        assert len(payload["densities"]) == 12
        assert (out / "fig1-analogue.txt").exists()

    def test_windowed_pooling(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=np.array([77, 0], dtype=np.uint64)))
        p = ReturnPanel(
            assets=[f"S{i}" for i in range(10)],
            returns=rng.standard_normal((10, 200)),
            standardized=False,
            bars_per_day=10,
            dt_seconds=60.0,
        )
        path = tmp_path / "iid.csv"
        export_panel(p, path)
        out = tmp_path / "out"
        rc = main(["elements", "--input", str(path), "--q-target", "5", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "elements.json").read_text())
        assert payload["n_entries"] == 4 * 45
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["q_target"] == 5.0

    def test_each_window_is_one_panel(self, tmp_path, monkeypatch):
        # The panel read from the file, then one standardized panel per
        # window, built straight from the window's slice.
        rng = np.random.Generator(np.random.Philox(key=np.array([78, 0], dtype=np.uint64)))
        path = tmp_path / "standardized.csv"
        export_panel(standardize(_panel(rng.standard_normal((10, 230)), bars_per_day=10)), path)
        built = []
        post_init = ReturnPanel.__post_init__
        monkeypatch.setattr(ReturnPanel, "__post_init__",
                            lambda self: built.append(self.standardized) or post_init(self))
        out = tmp_path / "out"
        rc = main(["elements", "--input", str(path), "--q-target", "5", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "elements.json").read_text())["n_entries"] == 4 * 45
        assert built == [True] * (1 + 4)


class TestMainRemove:
    def test_two_pass_removal(self, panel_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["remove", "--input", panel_file, "--remove-count", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "remove.json").read_text())
        assert payload["removed_modes"] == [1, 2]
        assert len(payload["passes_spectra"]) == 2
        assert len(payload["original_eigenvalues"]) == 4
        assert payload["passes_spectra"][1]["n_series"] == 4
        residual = ingest(str(out / "residual_panel.csv"), "panel")
        assert residual.standardized
        assert residual.n_assets == 4
        assert (out / "fig2c-analogue.txt").exists()

    def test_from_original_recorded_in_config(self, panel_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["remove", "--input", panel_file, "--from-original", "--out", str(out)])
        assert rc == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["from_original"] is True

    @pytest.fixture
    def sector_panel_file(self, tmp_path):
        p = generate(MarketModel(n_assets=12, t_length=600, bars_per_day=20,
                                 market_loading=0.6, sector_spec=[(6, 0.5), (6, 0.4)],
                                 seed=4))
        path = tmp_path / "sectors.csv"
        export_panel(p, path)
        return str(path)

    @pytest.mark.parametrize("from_original", [False, True])
    def test_one_run_computes_each_spectrum_once(self, sector_panel_file, tmp_path,
                                                 monkeypatch, from_original):
        calls = {"corr": 0, "regress": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        corr = counted(correlation_matrix, "corr")
        monkeypatch.setattr(xcorr.cli, "correlation_matrix", corr)
        monkeypatch.setattr(xcorr.modes, "correlation_matrix", corr)
        monkeypatch.setattr(xcorr.modes, "_regress_out",
                            counted(xcorr.modes._regress_out, "regress"))
        argv = ["remove", "--input", sector_panel_file, "--remove-count", "3",
                "--out", str(tmp_path / "out")]
        assert main(argv + (["--from-original"] if from_original else [])) == 0
        assert calls == {"corr": 4, "regress": 3}

    @pytest.mark.parametrize("from_original", [False, True])
    def test_artifacts_match_one_run_per_count(self, sector_panel_file, tmp_path, from_original):
        # Reference: the former runner, which re-ran the removal from scratch
        # for every pass count p = 1..3 and diagonalized each result.
        def payload(r):
            c = correlation_matrix(r)
            s = eigendecompose(c)
            b = mp_bounds(c.t_length / c.n_series)
            return s, b, overlap_fraction(s, b)

        r = ingest(sector_panel_file, "panel")
        s0, b0, gamma0 = payload(r)
        passes = []
        for p in range(1, 4):
            res = remove_modes_iterative(r, p, from_original=from_original)
            s, _, gamma = payload(res.panel)
            passes.append({"removed": p, "eigenvalues": s.eigenvalues.tolist(),
                           "overlap_fraction": gamma, "n_series": res.panel.n_assets})

        out = tmp_path / "out"
        argv = ["remove", "--input", sector_panel_file, "--remove-count", "3", "--out", str(out)]
        assert main(argv + (["--from-original"] if from_original else [])) == 0
        got = json.loads((out / "remove.json").read_text())
        expect = res.to_dict()
        expect.update({
            "config_hash": got["config_hash"],
            "original_eigenvalues": s0.eigenvalues.tolist(),
            "original_overlap_fraction": gamma0,
            "mp": b0.to_dict(),
            "passes_spectra": passes,
        })
        assert got == expect
        ref_panel = tmp_path / "ref_panel.csv"
        export_panel(res.panel, ref_panel, extra_comments=[f"config_hash: {got['config_hash']}"])
        assert _read(out / "residual_panel.csv") == _read(ref_panel)

    def test_remove_count_above_n_is_an_error(self, sector_panel_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["remove", "--input", sector_panel_file, "--remove-count", "13",
                   "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "N=12, got 13" in err["error"]
        assert not out.exists()

    def test_zero_remove_count_is_an_error(self, panel_file, tmp_path, capsys):
        rc = main(["remove", "--input", panel_file, "--remove-count", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--remove-count" in err["error"]


class TestMainSurrogate:
    def test_rotate_free_artifacts(self, panel_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["surrogate", "--input", panel_file, "--surrogate-kind", "rotate_free",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "surrogate.json").read_text())
        assert payload["surrogate"] == {"kind": "rotate_free", "seed": 3}
        assert len(payload["surrogate_eigenvalues"]) == 4
        assert payload["lambda1_ratio"] > 0
        sur = ingest(str(out / "surrogate_panel.csv"), "panel")
        assert sur.n_assets == 4
        tag_file = out / "fig3a-analogue.txt"
        assert tag_file.read_text().splitlines()[0] == "# fig3a-analogue"

    def test_each_kind_gets_its_figure_tag(self, panel_file, tmp_path):
        tags = {"shuffle_signs": "fig4a", "shuffle_magnitudes": "fig4b",
                "signs_only": "fig5a", "magnitudes_only": "fig5b"}
        for kind, tag in tags.items():
            out = tmp_path / kind
            rc = main(["surrogate", "--input", panel_file, "--surrogate-kind", kind,
                       "--out", str(out)])
            assert rc == 0
            assert (out / f"{tag}-analogue.txt").exists()

    def test_surrogate_panel_rerun_is_byte_identical(self, panel_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["surrogate", "--input", panel_file, "--surrogate-kind",
                       "shuffle_magnitudes", "--seed", "9", "--out", str(out)])
            assert rc == 0
        assert _read(a / "surrogate_panel.csv") == _read(b / "surrogate_panel.csv")

    def test_missing_kind_is_an_error(self, panel_file, tmp_path, capsys):
        rc = main(["surrogate", "--input", panel_file, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "surrogate-kind" in err["error"]


class TestMainMfdfa:
    @pytest.fixture
    def long_panel_file(self, tmp_path):
        p = generate(MarketModel(n_assets=3, t_length=2000, bars_per_day=100,
                                 market_loading=0.4, seed=6))
        path = tmp_path / "long_panel.csv"
        export_panel(p, path)
        return str(path)

    def test_per_mode_and_average(self, long_panel_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["mfdfa", "--input", long_panel_file, "--modes", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "mfdfa.json").read_text())
        assert [m["mode"] for m in payload["per_mode"]] == [1, 2]
        assert len(payload["average"]["q"]) == 41
        assert payload["per_mode"][0]["surface"]["h"] is not None
        assert (out / "fig6-analogue.txt").exists()
        assert (out / "fig7-analogue.txt").exists()

    def test_custom_scales_and_grid(self, long_panel_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["mfdfa", "--input", long_panel_file, "--modes", "1",
                   "--q-grid=-2:2:0.5", "--scales", "16,32,64,128,256",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "mfdfa.json").read_text())
        assert payload["average"]["q"] == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
        assert payload["per_mode"][0]["surface"]["scales"] == [16, 32, 64, 128, 256]

    def test_geometric_scales(self, tmp_path, monkeypatch):
        # A largest scale of 400 needs T >= 1600.
        monkeypatch.setattr(xcorr.cli, "preset", lambda name, seed=0: xcorr.synth.preset(
            name, seed=seed, n_assets=6, t_length=2000))
        out = tmp_path / "out"
        assert main(["mfdfa", "--preset", "one_factor", "--modes", "2",
                     "--scales", "16:400:8", "--out", str(out)]) == 0
        payload = json.loads((out / "mfdfa.json").read_text())
        want = xcorr.mfdfa._geometric_scales(16, 400, 8).tolist()
        assert [m["surface"]["scales"] for m in payload["per_mode"]] == [want, want]
        assert json.loads((out / "config.json").read_text())["scales"] == "16:400:8"

    def test_bad_q_grid_is_reported(self, long_panel_file, tmp_path, capsys):
        rc = main(["mfdfa", "--input", long_panel_file, "--q-grid", "0:4:2",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "5" in _stderr_json(capsys)["error"]

    @pytest.mark.parametrize("grid", ["-4:4:0", "-4:4:0.3"])
    def test_q_grid_without_whole_steps_is_an_error(self, long_panel_file, tmp_path, capsys, grid):
        rc = main(["mfdfa", "--input", long_panel_file, f"--q-grid={grid}",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--q-grid" in err["error"]

    def test_q_grid_with_too_many_moments_is_an_error(self, long_panel_file, tmp_path, capsys):
        # The size check runs before the grid is built, so nothing is allocated.
        rc = main(["mfdfa", "--input", long_panel_file, "--q-grid=-4:4:1e-9",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--q-grid" in err["error"]

    def test_huge_detrend_order_is_an_error(self, long_panel_file, tmp_path, capsys):
        rc = main(["mfdfa", "--input", long_panel_file, "--detrend-order", "1000000000",
                   "--modes", "3", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "under-determined" in err["error"]

    @pytest.mark.parametrize("modes", [[], ["--modes", "4"],
                                       ["--modes", "100000000000000000000000"]],
                             ids=["default", "4", "1e23"])
    def test_modes_above_n_is_an_error(self, long_panel_file, tmp_path, capsys, modes):
        out = tmp_path / "out"
        rc = main(["mfdfa", "--input", long_panel_file, *modes, "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--modes" in err["error"] and "N=3" in err["error"]
        assert not (out / "mfdfa.json").exists()

    def test_zero_modes_is_an_error(self, long_panel_file, tmp_path, capsys):
        rc = main(["mfdfa", "--input", long_panel_file, "--modes", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--modes" in err["error"]


class TestMainReport:
    def test_report_with_coarsening(self, panel_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["report", "--input", panel_file, "--factors", "1,2,4",
                   "--bins", "10", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        lam = payload["lambda1_vs_coarsening"]
        assert [f for f, _ in lam] == [1, 2, 4]
        assert abs(lam[0][1] - payload["spectrum"]["eigenvalues"][0]) < 1e-12
        lines = (out / "lambda1-vs-coarsening.txt").read_text().splitlines()
        assert lines[0] == "# lambda1-vs-coarsening-analogue"

    def test_non_dividing_factor_is_an_error(self, panel_file, tmp_path, capsys):
        rc = main(["report", "--input", panel_file, "--factors", "3",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "divide" in _stderr_json(capsys)["error"]

    def test_default_factors_against_78_bars_fail_before_any_spectrum(self, tmp_path, capsys,
                                                                       monkeypatch):
        # --factors 1,2,5,10 and --bars-per-day 78 are both defaults.
        rng = np.random.default_rng(4)
        prices = 100.0 * np.exp(np.cumsum(1e-3 * rng.standard_normal((157, 3)), axis=0))
        path = tmp_path / "prices.csv"
        path.write_text("t,A,B,C\n" + "".join(f"{60 * j}," + ",".join(map(repr, row)) + "\n"
                                              for j, row in enumerate(prices.tolist())))
        calls = []
        monkeypatch.setattr(xcorr.cli, "correlation_matrix", lambda *args: calls.append(args))
        rc = main(["report", "--input", str(path), "--format", "wide",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert _stderr_json(capsys)["error"] == (
            "--factors '1,2,5,10' must each divide the 78 bars per day; "
            "the divisors up to 10 are 1, 2, 3, 6")
        assert calls == []

    def test_divisors_of_a_huge_factor_stop_at_the_panel_length(self, panel_file, tmp_path,
                                                                capsys):
        rc = main(["report", "--input", panel_file, "--factors", "1,99999999999",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert _stderr_json(capsys)["error"] == (
            "--factors '1,99999999999' must each divide the 8 bars per day; "
            "the divisors up to 64 are 1, 2, 4, 8")

    @pytest.mark.parametrize("factors", ["a", ",", "0,2"])
    def test_unparseable_factors_are_an_error(self, panel_file, tmp_path, capsys, factors):
        rc = main(["report", "--input", panel_file, f"--factors={factors}",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--factors" in err["error"]

    def test_bad_factors_fail_before_out_is_created(self, tmp_path, capsys):
        out = tmp_path / "fo"
        rc = main(["report", "--preset", "mp_null", "--factors", "abc", "--out", str(out)])
        assert rc == 1
        assert "--factors" in _stderr_json(capsys)["error"]
        assert not out.exists()

    def test_input_spectrum_is_reused_for_factor_one(self, panel_file, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return correlation_matrix(*args)

        monkeypatch.setattr(xcorr.cli, "correlation_matrix", counted)
        rc = main(["report", "--input", panel_file, "--factors", "1,2,4,8",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(calls) == 4


class TestMainSynth:
    def test_preset_required(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--preset" in _stderr_json(capsys)["error"]


class TestConfigPrecedence:
    def test_flag_beats_config_file_beats_default(self, panel_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bins": 30}))

        out1 = tmp_path / "o1"
        main(["elements", "--input", panel_file, "--config", str(cfg_path),
              "--out", str(out1)])
        assert json.loads((out1 / "config.json").read_text())["bins"] == 30

        out2 = tmp_path / "o2"
        main(["elements", "--input", panel_file, "--config", str(cfg_path),
              "--bins", "20", "--out", str(out2)])
        assert json.loads((out2 / "config.json").read_text())["bins"] == 20

        out3 = tmp_path / "o3"
        main(["elements", "--input", panel_file, "--out", str(out3)])
        assert json.loads((out3 / "config.json").read_text())["bins"] == 50

    def test_unknown_config_key_rejected(self, panel_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bin_count": 30}))
        rc = main(["elements", "--input", panel_file, "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown config keys" in _stderr_json(capsys)["error"]

    @pytest.mark.parametrize("subcommand, key, value", [
        ("mfdfa", "q_grid", 5),
        ("mfdfa", "scales", 5),
        ("remove", "remove_count", None),
        ("spectrum", "seed", [1]),
        ("remove", "from_original", "no"),
        ("remove", "remove_count", "2"),
        ("surrogate", "surrogate_kind", "bogus"),
        ("spectrum", "format", "csv"),
        ("spectrum", "preset", "garch"),
        pytest.param("elements", "q_target", 10**400, id="elements-q_target-10**400"),
    ])
    def test_config_value_of_wrong_type_rejected(self, panel_file, tmp_path, capsys,
                                                 subcommand, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        rc = main([subcommand, "--input", panel_file, "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert repr(key) in err["error"] and str(cfg_path) in err["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body", ["5", '["bins"]'])
    def test_config_file_must_hold_an_object(self, panel_file, tmp_path, capsys, body):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(body)
        rc = main(["spectrum", "--input", panel_file, "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "JSON object" in err["error"]

    def test_config_int_for_float_key_hashes_like_the_flag(self, panel_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q_target": 2}))
        outs = [tmp_path / "file", tmp_path / "flag"]
        main(["elements", "--input", panel_file, "--config", str(cfg_path), "--out", str(outs[0])])
        main(["elements", "--input", panel_file, "--q-target", "2", "--out", str(outs[1])])
        echoed = [json.loads((out / "config.json").read_text()) for out in outs]
        assert echoed[0] == echoed[1]
        assert echoed[0]["q_target"] == 2.0

    def test_env_seed_fallback(self, panel_file, tmp_path, monkeypatch):
        monkeypatch.setenv("XCORR_SEED", "17")
        out = tmp_path / "out"
        main(["spectrum", "--input", panel_file, "--out", str(out)])
        assert json.loads((out / "config.json").read_text())["seed"] == 17

    def test_flag_beats_env_seed(self, panel_file, tmp_path, monkeypatch):
        monkeypatch.setenv("XCORR_SEED", "17")
        out = tmp_path / "out"
        main(["spectrum", "--input", panel_file, "--seed", "4", "--out", str(out)])
        assert json.loads((out / "config.json").read_text())["seed"] == 4

    def test_bad_env_seed_is_an_error(self, panel_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("XCORR_SEED", "lots")
        rc = main(["spectrum", "--input", panel_file, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "XCORR_SEED" in _stderr_json(capsys)["error"]

    @pytest.mark.parametrize("env", ["-1", str(2**64)])
    def test_env_seed_out_of_range_is_an_error(self, panel_file, tmp_path, monkeypatch,
                                               capsys, env):
        monkeypatch.setenv("XCORR_SEED", env)
        out = tmp_path / "out"
        rc = main(["spectrum", "--input", panel_file, "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "XCORR_SEED" in err["error"]
        assert not out.exists()

    def test_hash_ignores_output_path(self, panel_file, tmp_path):
        outs = [tmp_path / "h1", tmp_path / "h2"]
        for out in outs:
            main(["spectrum", "--input", panel_file, "--out", str(out)])
        hashes = [
            json.loads((out / "config.json").read_text())["config_hash"] for out in outs
        ]
        assert hashes[0] == hashes[1]

    def test_config_echo_excludes_out(self, panel_file, tmp_path):
        out = tmp_path / "out"
        main(["spectrum", "--input", panel_file, "--out", str(out)])
        cfg = json.loads((out / "config.json").read_text())
        assert "out" not in cfg
        assert cfg["subcommand"] == "spectrum"


def _small_preset(name, seed=0):
    """A preset cut to 6 x 1200, enough for every subcommand's defaults."""
    return xcorr.synth.preset(name, seed=seed, n_assets=6, t_length=1200)


def _tree(out):
    """{file name: bytes} of an output directory."""
    return {name: _read(out / name) for name in sorted(os.listdir(out))}


def _key_argv(tmp_path, key, value, via):
    """`key` set to `value` by its flag or by a config file, as argv."""
    if via == "flag":
        return [xcorr.cli._flag_name(key), str(value)]
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps({key: value}))
    return ["--config", str(path)]


# Each subcommand's extra flags in a replay: each extra flag set away from its default.
_REPLAY_EXTRAS = {
    "spectrum": [],
    "elements": ["--q-target", "2", "--bins", "20"],
    "remove": ["--remove-count", "2", "--from-original"],
    "surrogate": ["--surrogate-kind", "rotate_daily", "--seed", "5"],
    "mfdfa": ["--modes", "2", "--q-grid=-2:2:0.5"],
    "report": ["--factors", "1,2,5"],
    "synth": [],
}


class TestReplay:
    """A run's config.json, passed back as --config, writes the run's bytes."""

    @pytest.fixture
    def sources(self, tmp_path, monkeypatch):
        monkeypatch.setattr(xcorr.cli, "preset", _small_preset)
        r = generate(MarketModel(n_assets=5, t_length=1000, bars_per_day=10,
                                 market_loading=0.5, seed=3))
        panel = tmp_path / "panel.csv"
        export_panel(r, panel)
        prices = 100.0 * np.exp(np.cumsum(np.hstack([np.zeros((5, 1)), 0.01 * r.returns]), axis=1))
        wide = tmp_path / "wide.csv"
        wide.write_text("t," + ",".join(r.assets) + "\n" + "".join(
            f"{60 * j}," + ",".join(repr(float(p)) for p in prices[:, j]) + "\n"
            for j in range(prices.shape[1])))
        return {"preset": ["--preset", "one_factor", "--seed", "3"],
                "panel": ["--input", str(panel)],
                "wide": ["--input", str(wide), "--format", "wide", "--bars-per-day", "10"]}

    @pytest.mark.parametrize("command, source", [
        (command, source) for command in _REPLAY_EXTRAS for source in ("preset", "panel", "wide")
        if command != "synth" or source == "preset"
    ])
    def test_config_json_replays_the_run(self, tmp_path, sources, command, source):
        first, replay = tmp_path / "first", tmp_path / "replay"
        argv = [command, *sources[source], *_REPLAY_EXTRAS[command]]
        assert main([*argv, "--out", str(first)]) == 0
        assert main([command, "--config", str(first / "config.json"), "--out", str(replay)]) == 0
        assert _tree(replay) == _tree(first)

    def test_synth_config_runs_as_spectrum(self, tmp_path, sources):
        synth, replay, direct = tmp_path / "synth", tmp_path / "replay", tmp_path / "direct"
        assert main(["synth", *sources["preset"], "--out", str(synth)]) == 0
        assert main(["spectrum", "--config", str(synth / "config.json"),
                     "--out", str(replay)]) == 0
        assert main(["spectrum", *sources["preset"], "--out", str(direct)]) == 0
        assert _tree(replay) == _tree(direct)

    def test_echoed_subcommand_and_hash_are_replaced(self, tmp_path, sources):
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["spectrum", *sources["panel"], "--out", str(first)]) == 0
        cfg = json.loads((first / "config.json").read_text())
        cfg.update(subcommand="report", config_hash="0" * 64)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(cfg))
        assert main(["spectrum", "--config", str(path), "--out", str(replay)]) == 0
        assert _tree(replay) == _tree(first)

    @pytest.mark.parametrize("via", ["flag", "file"])
    @pytest.mark.parametrize("source, key, value", [
        ("preset", "input", "prices.csv"),
        ("preset", "format", "wide"),
        ("preset", "bars_per_day", 5),
        ("panel", "bars_per_day", 5),
    ])
    def test_unused_key_away_from_its_default_is_an_error(self, tmp_path, sources, capsys,
                                                          source, key, value, via):
        out = tmp_path / "out"
        rc = main(["spectrum", *sources[source], *_key_argv(tmp_path, key, value, via),
                   "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert err["error"].startswith(f"{xcorr.cli._flag_name(key)} {value!r} would be ignored")
        assert not out.exists()

    @pytest.mark.parametrize("source, key, via", [
        ("preset", "input", "file"),  # no flag sets null
        *[("preset", key, via) for key in ("format", "bars_per_day") for via in ("flag", "file")],
        ("panel", "bars_per_day", "flag"), ("panel", "bars_per_day", "file"),
    ])
    def test_unused_key_at_its_default_writes_the_bytes_of_leaving_it_out(
            self, tmp_path, sources, source, key, via):
        value = xcorr.cli.DEFAULTS[key]
        left_out, given = tmp_path / "left_out", tmp_path / "given"
        assert main(["spectrum", *sources[source], "--out", str(left_out)]) == 0
        assert main(["spectrum", *sources[source], *_key_argv(tmp_path, key, value, via),
                     "--out", str(given)]) == 0
        assert _tree(given) == _tree(left_out)


_PANEL = "<panel file>"
_PANEL40 = "<40-asset panel file>"
_DIR = "<a directory>"
_MISSING = "<no such file>"
# A fault a case injects, named by a marker in its argv.
_EIO = "<every input read raises EIO>"
_ENOSPC = "<the spectrum.json write raises ENOSPC>"


def _failing(real, when, code):
    """`real`, but raising OSError(code) when ``when(*args)`` holds."""
    def wrapper(*args, **kwargs):
        if when(*args):
            raise OSError(code, os.strerror(code))
        return real(*args, **kwargs)
    return wrapper


def _injected(m, fault):
    """Install `fault` with the monkeypatch `m`."""
    if fault == _EIO:
        m.setattr(os, "pread", _failing(os.pread, lambda *a: True, errno.EIO))
    else:
        m.setattr(xcorr.cli, "open", _failing(open, lambda path, *a: os.path.basename(path)
                                              == "spectrum.json", errno.ENOSPC), raising=False)


@pytest.mark.parametrize("argv, body, env", [
    (["spectrum", "--input", _PANEL], {"bin_count": 30}, None),
    (["spectrum", "--input", _PANEL], {"bins": "30"}, None),
    (["spectrum", "--input", _PANEL], "[", None),
    (["elements", "--input", _PANEL, "--bins", "5"], None, None),
    (["spectrum", "--input", _PANEL, "--seed", "-1"], None, None),
    (["spectrum", "--input", _PANEL], None, "lots"),
    (["mfdfa", "--input", _PANEL, "--q-grid", "1:0:1"], None, None),
    (["mfdfa", "--input", _PANEL, "--scales", "100"], None, None),
    (["report", "--input", _PANEL, "--factors", "a"], None, None),
    (["surrogate", "--input", _PANEL], None, None),
    (["spectrum", "--input", _PANEL, "--bars-per-day", "5"], None, None),
    (["spectrum", "--input", _PANEL, "--preset", "one_factor"], None, None),
    (["spectrum"], None, None),
    (["synth", "--input", _PANEL], None, None),
    (["spectrum", "--input", _MISSING], None, None),
    (["spectrum", "--input", _DIR], None, None),
    (["spectrum", "--input", os.devnull], None, None),
    (["mfdfa", "--input", _PANEL40, "--modes", "99"], None, None),
    (["remove", "--input", _PANEL40, "--remove-count", "41"], None, None),
    (["spectrum", "--input", _PANEL, _EIO], None, None),
    (["spectrum", "--input", _PANEL, _ENOSPC], None, None),
], ids=["unknown-key", "wrong-type", "not-json", "bins", "seed", "env-seed", "q-grid", "scales",
        "factors", "no-kind", "bars-per-day", "preset-and-input", "no-input", "synth-no-preset",
        "missing-input", "directory-input", "devnull-input", "modes-above-n",
        "remove-count-above-n", "input-eio", "write-enospc"])
def test_failed_run_creates_no_out(panel_file, tmp_path, capsys, monkeypatch, argv, body, env):
    """A run that fails, on its config, its input, its computation or its
    writes, exits 1 with a ValueError and leaves no --out."""
    monkeypatch.setattr(xcorr.cli, "preset", _small_preset)
    if env is not None:
        monkeypatch.setenv("XCORR_SEED", env)
    paths = {_PANEL: panel_file, _DIR: str(tmp_path), _MISSING: str(tmp_path / "missing.csv")}
    if _PANEL40 in argv:
        paths[_PANEL40] = str(tmp_path / "panel40.csv")
        export_panel(generate(MarketModel(n_assets=40, t_length=256, bars_per_day=8,
                                          market_loading=0.5, seed=3)), paths[_PANEL40])
    faults = [a for a in argv if a in (_EIO, _ENOSPC)]
    argv = [paths.get(a, a) for a in argv if a not in faults] + ["--out", str(tmp_path / "out")]
    if body is not None:
        path = tmp_path / "cfg.json"
        path.write_text(body if isinstance(body, str) else json.dumps(body))
        argv += ["--config", str(path)]
    with monkeypatch.context() as m:
        for fault in faults:
            _injected(m, fault)
        assert main(argv) == 1
    assert _stderr_json(capsys)["type"] == "ValueError"
    assert not (tmp_path / "out").exists()


class TestWriteErrors:
    """An OSError while the artifacts are written is a ValueError naming --out
    and the file; the set already in --out is left as it was, and no partial
    directory or lock file is left."""

    @pytest.mark.parametrize("command, patch, name", [
        ("spectrum", "open", "spectrum.json"),
        ("spectrum", "open", "fig2a-analogue.txt"),
        ("remove", "open", "residual_panel.csv"),
        ("spectrum", "replace", "config.json"),
        ("spectrum", "mkdtemp", "a .xcorr-partial-* directory"),
    ])
    def test_error_names_out_and_file(self, panel_file, tmp_path, capsys, monkeypatch,
                                      command, patch, name):
        out = tmp_path / "out"
        argv = [command, "--input", panel_file, "--out", str(out)]
        assert main(argv + ["--seed", "1"]) == 0
        before = _tree(out)
        is_name = lambda path, *a: os.path.basename(path) == name  # noqa: E731
        with monkeypatch.context() as m:
            if patch == "open":
                m.setattr(xcorr.cli, "open", _failing(open, is_name, errno.ENOSPC), raising=False)
            elif patch == "replace":
                m.setattr(os, "replace", _failing(os.replace, is_name, errno.EIO))
            else:
                m.setattr(tempfile, "mkdtemp", _failing(tempfile.mkdtemp, lambda *a: True,
                                                        errno.ENOSPC))
            assert main(argv + ["--seed", "2"]) == 1
        code = errno.EIO if patch == "replace" else errno.ENOSPC
        assert _stderr_json(capsys) == {
            "error": f"--out {out}: cannot write {name} ({os.strerror(code)})",
            "type": "ValueError"}
        assert _tree(out) == before
        assert not [n for n in os.listdir(out) if n.startswith(".xcorr-")]

    @pytest.mark.parametrize("fault", ["write", "mkdir"])
    def test_nested_out_leaves_no_directory(self, panel_file, tmp_path, capsys, monkeypatch,
                                            fault):
        # --out a/b/c, none of which exists: a failed run removes all three,
        # whether spectrum.json cannot be written or makedirs stops half way.
        out = tmp_path / "a" / "b" / "c"
        with monkeypatch.context() as m:
            if fault == "write":
                _injected(m, _ENOSPC)
            else:
                m.setattr(os, "mkdir", _failing(os.mkdir, lambda path, *a: str(path) == str(out),
                                                errno.ENOSPC))
            assert main(["spectrum", "--input", panel_file, "--out", str(out)]) == 1
        what = "write spectrum.json" if fault == "write" else "create the output directory"
        assert _stderr_json(capsys)["error"] == (
            f"--out {out}: cannot {what} ({os.strerror(errno.ENOSPC)})")
        assert os.listdir(tmp_path) == ["panel.csv"]

    def test_locked_run_computes_first(self, panel_file, tmp_path, capsys, monkeypatch):
        # The lock is taken only to write: a second run into a live --out
        # fails after its runner has returned, and leaves the set as it was.
        out = tmp_path / "out"
        argv = ["spectrum", "--input", panel_file, "--out", str(out)]
        assert main(argv) == 0
        ran = []
        runner, help_text = xcorr.cli._COMMANDS["spectrum"]
        monkeypatch.setitem(xcorr.cli._COMMANDS, "spectrum",
                            (lambda cfg: ran.append(1) or runner(cfg), help_text))
        with _holding(out / ".xcorr-lock"):
            before = _tree(out)
            assert main(argv + ["--seed", "2"]) == 1
            assert _tree(out) == before
        assert ran == [1]
        assert "is locked by another run" in _stderr_json(capsys)["error"]


class TestLockWithoutFcntl:
    """Where fcntl is missing, the lock is a file created exclusively: a run
    removes it when done, and one that finds it fails after computing and
    leaves it, and the set in --out, as they were."""

    def test_run_writes_and_removes_the_lock(self, panel_file, tmp_path, monkeypatch):
        monkeypatch.setattr(xcorr.cli, "fcntl", None)
        out = tmp_path / "out"
        assert main(["spectrum", "--input", panel_file, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["config.json", "fig2a-analogue.txt", "spectrum.json"]

    def test_lock_file_present_fails_after_computing(self, panel_file, tmp_path, capsys,
                                                     monkeypatch):
        out = tmp_path / "out"
        argv = ["spectrum", "--input", panel_file, "--out", str(out)]
        assert main(argv) == 0
        (out / ".xcorr-lock").write_text("")
        before = _tree(out)
        ran = []
        runner, help_text = xcorr.cli._COMMANDS["spectrum"]
        monkeypatch.setitem(xcorr.cli._COMMANDS, "spectrum",
                            (lambda cfg: ran.append(1) or runner(cfg), help_text))
        monkeypatch.setattr(xcorr.cli, "fcntl", None)
        assert main(argv + ["--seed", "2"]) == 1
        assert ran == [1]
        assert "is locked by another run" in _stderr_json(capsys)["error"]
        assert _tree(out) == before


class TestMainErrors:
    @pytest.mark.parametrize("argv, message", [
        (["mfdfa", "--detrend-order", "0", "--modes", "3"],
         "--detrend-order must be at least 1, got 0"),
        (["elements", "--q-target", "0.2"],
         "window length 1 is too short: q_target*N = 0.8 (q_target=0.2, N=4)"),
    ], ids=["detrend-order", "q-target"])
    def test_a_bad_value_names_its_input(self, panel_file, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        rc = main([*argv, "--input", panel_file, "--out", str(out)])
        assert rc == 1
        assert _stderr_json(capsys) == {"error": message, "type": "ValueError"}
        assert not out.exists()

    def test_no_input_or_preset(self, tmp_path, capsys):
        rc = main(["spectrum", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--input or --preset" in err["error"]

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["decompose"])
        assert exc.value.code == 2

    def test_unknown_preset_choice_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--preset", "garch", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_locked_output_dir(self, panel_file, tmp_path, capsys):
        out = tmp_path / "busy"
        out.mkdir()
        lock = out / ".xcorr-lock"
        with _holding(lock):
            rc = main(["spectrum", "--input", panel_file, "--out", str(out)])
        assert rc == 1
        assert _stderr_json(capsys)["error"] == (
            f"output directory {out} is locked by another run (remove {lock} if stale)")

    @pytest.mark.skipif(xcorr.cli.fcntl is None or not hasattr(os, "fork"),
                        reason="needs fcntl and os.fork")
    def test_lock_of_a_killed_run_is_taken_over(self, panel_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["spectrum", "--input", panel_file, "--out", str(out)]
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # takes the lock, starts its artifact set, then waits to be killed
            try:
                out.mkdir()
                with _holding(out / ".xcorr-lock"):
                    tempfile.mkdtemp(prefix=".xcorr-partial-", dir=out)
                    os.write(w, b"x")
                    while True:
                        signal.pause()
            finally:
                os._exit(0)
        try:
            assert os.read(r, 1) == b"x"
            assert main(argv) == 1  # a live holder keeps the lock
            assert _stderr_json(capsys)["error"] == (
                f"output directory {out} is locked by another run "
                f"(remove {out / '.xcorr-lock'} if stale)")
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
            os.close(w)
        left = os.listdir(out)  # what the kill left behind
        assert ".xcorr-lock" in left and any(n.startswith(".xcorr-partial-") for n in left)
        assert main(argv) == 0
        assert not [n for n in os.listdir(out) if n.startswith(".xcorr-")]
        assert "spectrum.json" in os.listdir(out)

    @pytest.mark.parametrize("fmt", ["panel", "wide"])
    def test_bars_per_day_below_one_is_an_error(self, panel_file, prices_small_path,
                                               tmp_path, capsys, fmt):
        path = panel_file if fmt == "panel" else prices_small_path
        rc = main(["spectrum", "--input", path, "--format", fmt, "--bars-per-day", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--bars-per-day" in err["error"]

    @pytest.mark.parametrize("source", ["panel flag", "panel config", "preset flag"])
    def test_bars_per_day_set_by_the_input_is_an_error(self, panel_file, tmp_path, capsys,
                                                       source):
        # The panel header or the preset sets the bars per day; an explicit
        # value would be ignored yet recorded in config.json and its hash.
        argv = (["--preset", "one_factor"] if source == "preset flag"
                else ["--input", panel_file])
        if source == "panel config":
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"bars_per_day": 5}))
            argv += ["--config", str(cfg_path)]
        else:
            argv += ["--bars-per-day", "5"]
        out = tmp_path / "out"
        rc = main(["spectrum", *argv, "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert "--bars-per-day" in err["error"]
        assert not out.exists()

    def test_failed_run_leaves_no_artifacts(self, panel_file, tmp_path, capsys, monkeypatch):
        def broken_plot(*args):
            raise RuntimeError("disk full")

        monkeypatch.setattr(xcorr.cli, "_write_plot", broken_plot)
        out = tmp_path / "out"
        rc = main(["spectrum", "--input", panel_file, "--out", str(out)])
        assert rc == 1
        assert "disk full" in _stderr_json(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["mfdfa", "--scales", "16:400:100000000000"], "--scales"),
        (["elements", "--bins", "100000000000"], "--bins"),
        (["elements", "--q-target", "inf"], "--q-target"),
        (["elements", "--bins", "5"], "--bins"),
        (["report", "--bins", "9"], "--bins"),
        (["spectrum", "--seed", "-1"], "--seed"),
        (["surrogate", "--surrogate-kind", "rotate_free", "--seed", str(2**64)], "--seed"),
        (["elements", "--q-target", "0"], "--q-target"),
    ])
    def test_out_of_range_number_is_an_error(self, panel_file, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        rc = main([*argv, "--input", panel_file, "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert flag in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["long", "wide"])
    def test_malformed_csv_record_names_file_and_line(self, tmp_path, capsys, fmt):
        # The unbalanced quote on line 11 opens a field that does not close on
        # its line.
        if fmt == "long":
            lines = ["t,asset,price"] + [f"{60 * j},{a},{100.0 + 0.01 * j + k}"
                                         for j in range(5000) for k, a in enumerate("ABCD")]
            lines[10] = '0,"A,100.0'
        else:
            lines = ["t,A,B,C,D"] + [f"{60 * j}," + ",".join(str(100.0 + 0.01 * j + k)
                                                          for k in range(4))
                                     for j in range(5000)]
            lines[10] = '540,"100.0,101.0,102.0,103.0'
        path = tmp_path / f"{fmt}.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["spectrum", "--input", str(path), "--format", fmt,
                   "--bars-per-day", "10", "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert err["error"].startswith(f"{path}: line 11: malformed CSV record: ")
        assert err["error"] == f"{path}: {_RUNS_PAST.format(11)}"
        assert not out.exists()

    @pytest.mark.parametrize("scales, got", [("10,20,40", 3), ("100", 1)])
    def test_short_scale_grid_fails_before_the_run(self, tmp_path, capsys, scales, got):
        out = tmp_path / "out"
        rc = main(["mfdfa", "--preset", "one_factor", "--scales", scales, "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert err["error"] == f"need at least 5 scales to fit h(q), got {got}"
        assert not out.exists()

    @pytest.mark.parametrize("flag, target", [
        ("--config", "missing"),
        ("--config", "dir"),
        ("--input", "dir"),
        ("--out", "file"),
    ])
    def test_unusable_path_is_an_error(self, panel_file, tmp_path, capsys, flag, target):
        path = tmp_path / target
        if target == "dir":
            path.mkdir()
        elif target == "file":
            path.write_text("keep")
        out = tmp_path / "out"
        argv = {"--config": ["--input", panel_file, "--config", str(path), "--out", str(out)],
                "--input": ["--input", str(path), "--out", str(out)],
                "--out": ["--input", panel_file, "--out", str(path)]}[flag]
        rc = main(["spectrum", *argv])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert flag in err["error"] and str(path) in err["error"]
        assert not out.exists()
        if target == "file":
            assert path.read_text() == "keep"

    @pytest.mark.parametrize("fmt, text, line, token", [
        ("long", "t,asset,price\n0,A,100\nnan,A,101\n60,A,102\n", 3, "nan"),
        ("long", "t,asset,price\n0,A,100\n60,A,101\n-inf,A,102\n", 4, "-inf"),
        ("wide", "t,A,B\n0,100,50\ninf,101,51\n120,102,52\n", 3, "inf"),
        ("wide", "t,A,B\n0,100,50\n60,101,51\n NaN,102,52\n", 4, " NaN"),
    ], ids=["long-nan", "long-minus-inf", "wide-inf", "wide-spaced-nan"])
    def test_non_finite_timestamp_names_line_and_token(self, tmp_path, capsys,
                                                       fmt, text, line, token):
        path = tmp_path / "ts.csv"
        path.write_text(text)
        out = tmp_path / "out"
        rc = main(["spectrum", "--input", str(path), "--format", fmt,
                   "--bars-per-day", "1", "--out", str(out)])
        assert rc == 1
        err = _stderr_json(capsys)
        assert err["type"] == "ValueError"
        assert err["error"] == f"line {line}: non-finite timestamp {token!r}"
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["spectrum", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "not found" in _stderr_json(capsys)["error"]


# Flags the fuzz test sets itself (--input, --out) or leaves out: a preset is
# paper-scale.
_FUZZ_SKIP = {"input", "out", "preset"}


def _flag_token(f):
    """A valid value of flag `f`, a value beyond one of its bounds, or a token of
    the wrong type, as argv text."""
    bad = {int: ["x", "1.5"], float: ["x"], str: []}[f.type]
    if f.choices is not None:
        valid = st.sampled_from(f.choices)
        bad = ["bogus"]
    elif f.type is int:
        lo = f.ge if f.gt is None else f.gt + 1
        hi = f.le if f.lt is None else f.lt - 1
        valid = st.integers(min_value=lo, max_value=hi).map(str)
    elif f.type is float:
        valid = st.floats(min_value=f.gt, exclude_min=f.gt is not None,
                          allow_nan=False, allow_infinity=False).map(repr)
        bad += ["inf", "nan"]
    else:
        valid = st.text(alphabet="0123456789:,.-ex", max_size=24)
        if f.default is not None:
            valid = st.one_of(st.just(f.default), valid)
    for limit, beyond in ((f.ge, -1), (f.gt, 0), (f.le, 1), (f.lt, 0)):
        if limit is not None:
            bad.append(repr(f.type(limit + beyond)))
    return st.one_of(valid, st.sampled_from(bad)) if bad else valid


@st.composite
def _cli_argv(draw):
    """A subcommand and a subset of its flags, each with a drawn value."""
    command = draw(st.sampled_from(list(xcorr.cli._COMMANDS)))
    keys = [k for k, f in xcorr.cli._FLAGS.items()
            if k not in _FUZZ_SKIP and (f.commands is None or command in f.commands)]
    argv = [command]
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)):
        f, flag = xcorr.cli._FLAGS[key], xcorr.cli._flag_name(key)
        argv.append(flag if f.type is bool else f"{flag}={draw(_flag_token(f))}")
    return argv


@pytest.fixture(scope="module")
def fuzz_panel_file(tmp_path_factory):
    """A 5 x 1000 panel: long enough for MFDFA's default scales, small enough to
    run every subcommand in milliseconds."""
    path = tmp_path_factory.mktemp("fuzz") / "panel.csv"
    export_panel(generate(MarketModel(n_assets=5, t_length=1000, bars_per_day=10,
                                      market_loading=0.5, seed=3)), path)
    return str(path)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(argv=_cli_argv())
@example(argv=["elements", "--q-target=6.801888977388783e+307"])
@example(argv=["mfdfa", "--scales=16,99999999999999999999"])
@example(argv=["mfdfa", "--scales=16:99999999999999999999:5"])
def test_fuzzed_argv_exits_cleanly(fuzz_panel_file, argv):
    """Any argv built from the flag table is a usage error (exit 2), a success,
    or a reported ValueError (exit 1); a failure leaves no artifact."""
    with tempfile.TemporaryDirectory() as root:
        out = os.path.join(root, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                rc = main([*argv, "--input", fuzz_panel_file, "--out", out])
            except SystemExit as e:
                assert e.code == 2, argv
                assert not os.path.exists(out), argv
                return
        if rc == 0:
            assert "config.json" in os.listdir(out), argv
            return
        assert rc == 1, argv
        assert json.loads(err.getvalue().splitlines()[-1])["type"] == "ValueError", \
            (argv, err.getvalue())
        assert not os.path.exists(out), argv


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(**blas):
    """This process's environment without the BLAS thread variables, plus `blas`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC
    env.update(blas)
    return env


class TestBlasThreads:
    """Importing xcorr before numpy gives BLAS one thread unless the
    environment names a count, so a default run writes the same bytes on
    every host."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--preset", "one_factor", "--seed", "3"],
        ["remove", "--remove-count", "3", "--preset", "one_factor", "--seed", "3"],
    ], ids=["spectrum", "remove"])
    def test_default_environment_writes_the_one_thread_bytes(self, tmp_path, argv):
        outs = []
        for name, blas in [("unset", {}), ("one", dict.fromkeys(BLAS_VARS, "1"))]:
            out = tmp_path / name
            proc = subprocess.run([sys.executable, "-m", "xcorr.cli", *argv, "--out", str(out)],
                                  env=_env(**blas), capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert "config.json" in names
        assert sorted(os.listdir(outs[1])) == names
        for name in names:
            assert _read(outs[0] / name) == _read(outs[1] / name), name

    def test_an_exported_thread_count_wins(self):
        code = "import xcorr, os; print([os.environ[v] for v in %r])" % (BLAS_VARS,)
        proc = subprocess.run([sys.executable, "-c", code], env=_env(OPENBLAS_NUM_THREADS="2"),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['2', '1', '1']"
