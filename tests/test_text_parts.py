"""Panel CSV text formatted and parsed in forked parts (``cli._in_parts``).

Every helper count must give the serial bytes, arrays and errors, and no
forked child may outlive the call that started it.  The memory a read, and
each subcommand run on the read's panel, traces in the calling process is
bounded in units of that panel.
"""

import contextlib
import csv
import errno
import math
import io
import os
import signal
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xcorr.cli as cli
from xcorr import panel, synth
from xcorr.cli import export_panel, ingest
from xcorr.panel import ReturnPanel, _frozen

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

HELPERS = (0, 1, 3)
# (N, T): the cli_files panel, just over two blocks, one asset, T not a
# multiple of the 1024-bar block.
SHAPES = ((100, 10_000), (3, 2049), (1, 5000), (4, 3001))
HEADER_LINES = 5  # four comment lines and the 'bar,...' line of an export


def _returns(n, t, seed=0):
    """Values over many decades, so repr() takes every length it can."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t)) * 10.0 ** rng.integers(-15, 15, size=(n, t))
    return ReturnPanel(assets=[f"S{i}" for i in range(n)], returns=_frozen(x),
                       standardized=False, bars_per_day=7, dt_seconds=60.0)


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write_wide(path, n, t, seed=0):
    """A wide price CSV over T + 1 bars: asset 0 has small gaps (forward-filled),
    asset 1, if any, misses more than 5% of its bars (dropped)."""
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(1e-3 * rng.standard_normal((n, t + 1)), axis=1))
    cells = [[repr(float(v)) for v in row] for row in prices]
    for j in rng.choice(np.arange(1, t + 1), size=max(1, t // 500), replace=False):
        cells[0][j] = ""
    if n > 1:
        for j in rng.choice(np.arange(1, t + 1), size=t // 10, replace=False):
            cells[1][j] = " "
    with open(path, "w") as fh:
        fh.write("timestamp," + ",".join(f"S{i}" for i in range(n)) + "\n")
        for j in range(t + 1):
            fh.write(f"{j * 60.0!r}," + ",".join(row[j] for row in cells) + "\n")


def _cuts(n, helpers):
    """The part boundaries _in_parts uses for n rows and this helper count."""
    k = max(1, min(1 + helpers, n // cli._EXPORT_BLOCK))
    return [n * i // k for i in range(k + 1)]


@pytest.fixture
def helpers(monkeypatch):
    def use(count):
        monkeypatch.setattr(panel, "_HELPERS", count)
    return use


def _in_child(parent, action, real):
    """A wrapper that runs `action` in a forked child and `real` in the parent."""
    def wrapper(*args, **kwargs):
        if os.getpid() != parent:
            return action(*args, **kwargs)
        return real(*args, **kwargs)
    return wrapper


def _raise(*args, **kwargs):
    raise RuntimeError("child failed")


def _exit(*args, **kwargs):
    os._exit(1)


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def _half_then_exit(real):
    def write(fd, data):
        real(fd, memoryview(data)[:max(1, len(data) // 2)])
        os._exit(1)
    return write


def _half_then_kill(real):
    def write(fd, data):
        real(fd, memoryview(data)[:max(1, len(data) // 2)])
        os.kill(os.getpid(), signal.SIGKILL)
    return write


class TestParts:
    @needs_fork
    @pytest.mark.parametrize("n, count, parts", [
        (2047, 3, 1), (2048, 3, 2), (3072, 3, 3), (10_000, 3, 4), (10_000, 1, 2),
        (10_000, 0, 1), (0, 3, 1),
    ])
    def test_one_part_per_core_none_under_a_block(self, helpers, n, count, parts):
        helpers(count)
        owned, taken = [], []

        def take(lo, hi, fd):
            taken.append((lo, hi, os.read(fd, 100)))
            return True

        cli._in_parts(n, lambda lo, hi: f"{lo}:{hi}".encode(), take,
                      lambda lo, hi: owned.append((lo, hi)))
        cuts = _cuts(n, count)
        assert len(cuts) - 1 == parts
        assert owned == [(0, cuts[1])]
        assert [(lo, hi) for lo, hi, _ in taken] == list(zip(cuts[1:-1], cuts[2:]))
        assert all(data == f"{lo}:{hi}".encode() for lo, hi, data in taken)
        if parts > 1:
            assert min(np.diff(cuts)) >= cli._EXPORT_BLOCK

    def test_no_fork_means_one_part(self, monkeypatch):
        monkeypatch.setattr(panel, "_HELPERS", 3)
        monkeypatch.delattr(os, "fork", raising=False)
        seen = []
        cli._in_parts(10_000, _raise, _raise, lambda lo, hi: seen.append((lo, hi)))
        assert seen == [(0, 10_000)]


@needs_fork
class TestSameOutput:
    @pytest.mark.parametrize("n, t", SHAPES)
    def test_export_bytes_equal_across_helper_counts(self, tmp_path, helpers, n, t):
        r = _returns(n, t)
        written = {}
        for count in HELPERS:
            helpers(count)
            path = tmp_path / f"h{count}.csv"
            export_panel(r, path, extra_comments=["config_hash: x"])
            written[count] = _bytes(path)
        assert written[1] == written[0] and written[3] == written[0]
        lines = written[0].decode().splitlines()
        assert len(lines) == HEADER_LINES + 1 + t
        assert lines[-1] == f"{t - 1}," + ",".join(repr(float(v)) for v in r.returns[:, -1])

    @pytest.mark.parametrize("n, t", SHAPES)
    def test_panel_read_equal_across_helper_counts(self, tmp_path, helpers, n, t):
        r = _returns(n, t, seed=1)
        path = tmp_path / "panel.csv"
        export_panel(r, path)
        for count in HELPERS:
            helpers(count)
            back = ingest(str(path), "panel")
            assert np.array_equal(back.returns, r.returns)
            assert back.returns.flags.c_contiguous and not back.returns.flags.writeable

    @pytest.mark.parametrize("n, t", SHAPES)
    def test_wide_read_equal_across_helper_counts(self, tmp_path, helpers, n, t):
        path = tmp_path / "wide.csv"
        _write_wide(path, n, t)
        read = {}
        for count in HELPERS:
            helpers(count)
            with pytest.warns(UserWarning, match="forward-filled"):
                read[count] = ingest(str(path), "wide", bars_per_day=7)
        assert read[0].assets == ["S0", *[f"S{i}" for i in range(2, n)]]
        for count in (1, 3):
            assert read[count].assets == read[0].assets
            assert np.array_equal(read[count].prices, read[0].prices)
            assert np.array_equal(read[count].timestamps, read[0].timestamps)
        assert not np.isnan(read[0].prices).any()

    @pytest.mark.parametrize("count", (1, 3))
    def test_caller_parses_only_its_own_part(self, tmp_path, helpers, monkeypatch, count):
        # 5000 lines per process; the cuts follow the bytes, so the caller's
        # part is about 5000 lines, and a child that does its part sends it.
        bars = 5000 * (1 + count)
        export_panel(_returns(3, bars, seed=17), tmp_path / "panel.csv")
        _write_wide(tmp_path / "wide.csv", 3, bars - 1)
        parent, rows = os.getpid(), []

        def counted(real):
            def wrapper(*args):
                out = real(*args)
                if os.getpid() == parent:
                    rows.append(len(out))
                return out
            return wrapper

        monkeypatch.setattr(cli, "_parse_panel_rows", counted(cli._parse_panel_rows))
        monkeypatch.setattr(cli, "_price_rows", counted(cli._price_rows))
        helpers(count)
        ingest(str(tmp_path / "panel.csv"), "panel")
        assert abs(sum(rows) - 5000) < 100
        rows.clear()
        with pytest.warns(UserWarning):
            ingest(str(tmp_path / "wide.csv"), "wide", bars_per_day=7)
        assert abs(sum(rows) - 5000) < 100

    @pytest.mark.parametrize("count", (1, 3))
    def test_exporter_formats_only_its_own_part(self, tmp_path, helpers, monkeypatch, count):
        # 5000 bars per process: a child that formats its part sends it, so
        # the caller formats only its own, and the file is the serial one.
        r = _returns(3, 5000 * (1 + count), seed=18)
        helpers(0)
        export_panel(r, tmp_path / "serial.csv")
        parent, bars, real = os.getpid(), [0], cli._bar_lines

        def counted(*args):
            for line in real(*args):
                if os.getpid() == parent:
                    bars[0] += 1
                yield line

        monkeypatch.setattr(cli, "_bar_lines", counted)
        helpers(count)
        export_panel(r, tmp_path / "parts.csv")
        assert bars == [5000]
        assert _bytes(tmp_path / "parts.csv") == _bytes(tmp_path / "serial.csv")

    def test_wide_values_are_the_float_of_each_cell(self, tmp_path, helpers):
        path = tmp_path / "wide.csv"
        _write_wide(path, 3, 5000)
        with open(path) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        helpers(3)
        with pytest.warns(UserWarning):
            p = ingest(str(path), "wide", bars_per_day=7)
        col = np.array([float(row[3]) for row in rows])
        assert np.array_equal(p.prices[-1], col)


@needs_fork
class TestSerialErrors:
    @pytest.mark.parametrize("count", HELPERS)
    def test_panel_bad_lines_in_parts_1_and_2_name_the_first(self, tmp_path, helpers, count):
        r = _returns(2, 5000, seed=2)
        path = tmp_path / "panel.csv"
        export_panel(r, path)
        lines = _bytes(path).decode().splitlines(keepends=True)
        cuts = _cuts(5000, 3)
        first, second = cuts[1] + 17, cuts[2] + 5  # bars in parts 1 and 2 of four
        for bar in (second, first):
            lines[HEADER_LINES + bar] = f"{bar},1_0,x\n"
        path.write_text("".join(lines))
        helpers(count)
        with pytest.raises(ValueError, match=f"^line {HEADER_LINES + first + 1}: unparseable value"):
            ingest(str(path), "panel")

    @staticmethod
    def _wide_with_cells(path, bad):
        """The 3-asset wide file with cell 2 (asset S1) of data row k set to bad[k]."""
        _write_wide(path, 3, 5000)
        lines = _bytes(path).decode().splitlines(keepends=True)
        for row, cell in bad.items():
            cells = lines[1 + row].rstrip("\n").split(",")
            cells[2] = cell
            lines[1 + row] = ",".join(cells) + "\n"
        path.write_text("".join(lines))

    @pytest.mark.parametrize("count", HELPERS)
    def test_wide_bad_cells_in_parts_1_and_2_name_the_first(self, tmp_path, helpers, count):
        cuts = _cuts(5001, 3)
        first, second = cuts[1] + 3, cuts[2] + 9  # data rows in parts 1 and 2 of four
        path = tmp_path / "wide.csv"
        self._wide_with_cells(path, {first: "abc", second: "oops"})
        helpers(count)
        with pytest.raises(ValueError, match=f"^line {first + 2}: unparseable price 'abc' for S1$"):
            ingest(str(path), "wide", bars_per_day=7)

    @pytest.mark.parametrize("count", HELPERS)
    def test_wide_cell_holding_a_comma_in_line_order(self, tmp_path, helpers, count):
        path = tmp_path / "wide.csv"
        helpers(count)
        self._wide_with_cells(path, {1500: "abc", 4000: '"1,5"'})
        with pytest.raises(ValueError, match="^line 1502: unparseable price 'abc' for S1$"):
            ingest(str(path), "wide", bars_per_day=7)
        self._wide_with_cells(path, {1500: '"1,5"', 4000: "abc"})
        with pytest.raises(ValueError, match="^line 1502: unparseable price '1,5' for S1$"):
            ingest(str(path), "wide", bars_per_day=7)

    @pytest.mark.parametrize("count", HELPERS)
    def test_wide_bad_price_before_short_line_wins(self, tmp_path, helpers, count):
        path = tmp_path / "wide.csv"
        _write_wide(path, 3, 5000)
        lines = _bytes(path).decode().splitlines(keepends=True)
        cells = lines[1 + 3000].rstrip("\n").split(",")
        cells[1] = "nope"
        lines[1 + 3000] = ",".join(cells) + "\n"
        lines[1 + 4000] = "240000.0,1.0\n"
        path.write_text("".join(lines))
        helpers(count)
        with pytest.raises(ValueError, match="^line 3002: unparseable price 'nope' for S0$"):
            ingest(str(path), "wide", bars_per_day=7)
        lines[1 + 2000] = "120000.0,1.0\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="^line 2002: expected 4 fields, got 2$"):
            ingest(str(path), "wide", bars_per_day=7)

    @pytest.mark.parametrize("count", HELPERS)
    def test_panel_bad_value_before_short_line_wins(self, tmp_path, helpers, monkeypatch,
                                                     count):
        path = tmp_path / "panel.csv"
        export_panel(_returns(3, 5000, seed=10), path)
        lines = _bytes(path).decode().splitlines(keepends=True)
        # The short line at bar 4900 ends the scan, so 4900 lines are parsed;
        # the bad value lies 11 lines into the second part.
        bad = _cuts(4900, max(count, 1))[1] + 11
        lines[HEADER_LINES + bad] = f"{bad},1.0,x,2.0\n"
        lines[HEADER_LINES + 4900] = "4900,1.0\n"
        path.write_text("".join(lines))
        helpers(count)
        parse, calls, parent = cli._parse_panel_rows, [], os.getpid()

        def counted(lines, n_fields):
            if os.getpid() == parent:
                calls.append(len(lines))
            return parse(lines, n_fields)

        monkeypatch.setattr(cli, "_parse_panel_rows", counted)
        with pytest.raises(ValueError, match=f"^line {HEADER_LINES + bad + 1}: unparseable "
                                             "value in panel file$"):
            ingest(str(path), "panel")
        # The caller parses its own part, then bisects the failed part only:
        # about two parses of that part over ceil(log2 n) + 2 calls.
        cuts = _cuts(4900, count)
        own, failed = (cuts[1], cuts[2] - cuts[1]) if count else (0, 4900)
        assert len(calls) <= (1 if count else 0) + math.ceil(math.log2(failed)) + 2
        assert sum(calls) <= own + 2 * failed + 1
        lines[HEADER_LINES + 40] = "40,1.0\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^line {HEADER_LINES + 41}: expected 4 fields, "
                                             "got 2$"):
            ingest(str(path), "panel")

    @staticmethod
    def _poke(path, line, column):
        """Set byte `column` (1-based) of line `line` of the file to 0xff."""
        lines = _bytes(path).split(b"\n")
        lines[line - 1] = lines[line - 1][:column - 1] + b"\xff" + lines[line - 1][column:]
        path.write_bytes(b"\n".join(lines))

    @pytest.mark.parametrize("count", (0, 1))
    @pytest.mark.parametrize("bar", (15, 1800))
    def test_panel_byte_not_utf8_names_its_line(self, tmp_path, helpers, count, bar):
        # 2100 bars are two parts with one helper; bar 1800 lies in the second.
        path = tmp_path / "panel.csv"
        export_panel(_returns(3, 2100, seed=13), path)
        line = HEADER_LINES + bar + 1
        self._poke(path, line, 7)
        helpers(count)
        with pytest.raises(ValueError, match=f"^{path}: line {line}: byte 0xff at column 7 "
                                             "is not UTF-8 text$"):
            ingest(str(path), "panel")
        # A bad value before it is the first bad line.
        lines = _bytes(path).split(b"\n")
        lines[HEADER_LINES + bar - 3] = f"{bar - 3},1.0,x,2.0".encode()
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=f"^line {line - 3}: unparseable value"):
            ingest(str(path), "panel")

    @pytest.mark.parametrize("count", HELPERS)
    def test_wide_byte_not_utf8_names_its_line(self, tmp_path, helpers, count):
        path = tmp_path / "wide.csv"
        _write_wide(path, 3, 5000)
        self._poke(path, 4002, 3)
        helpers(count)
        with pytest.raises(ValueError, match=f"^{path}: line 4002: byte 0xff at column 3 "
                                             "is not UTF-8 text$"):
            ingest(str(path), "wide", bars_per_day=7)
        self._poke(path, 1, 2)
        with pytest.raises(ValueError, match=f"^{path}: line 1: byte 0xff"):
            ingest(str(path), "wide", bars_per_day=7)

    def test_long_byte_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("t,asset,price\n0,A,100\n0,B,50\n60,A,101\n60,B,51\n")
        self._poke(path, 4, 4)
        with pytest.raises(ValueError, match=f"^{path}: line 4: byte 0xff at column 4 "
                                             "is not UTF-8 text$"):
            ingest(str(path), "long", bars_per_day=1)

    @pytest.mark.parametrize("count", HELPERS)
    def test_panel_bad_line_found_by_bisection(self, tmp_path, helpers, monkeypatch, count):
        # One 5000-line part per process, a bad value 10 lines before the end
        # of the last.  The failed child parses its part once; the caller
        # redoes that part and bisects it, in at most 15 more parses.
        bars = 5000 * (1 + count)
        assert np.diff(_cuts(bars, count)).tolist() == [5000] * (1 + count)
        path = tmp_path / "panel.csv"
        export_panel(_returns(3, bars, seed=12), path)
        lines = _bytes(path).decode().splitlines(keepends=True)
        bad = bars - 10
        lines[HEADER_LINES + bad] = f"{bad},1.0,2.0,1e999x\n"
        path.write_text("".join(lines))
        log = tmp_path / "calls.log"
        parse = cli._parse_panel_rows

        def counted(rows, n_fields):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{os.getpid()}\n".encode())
            os.close(fd)
            return parse(rows, n_fields)

        monkeypatch.setattr(cli, "_parse_panel_rows", counted)
        helpers(count)
        with pytest.raises(ValueError, match=f"^line {HEADER_LINES + bad + 1}: unparseable "
                                             "value in panel file$"):
            ingest(str(path), "panel")
        pids = log.read_text().split()
        caller = str(os.getpid())
        # A child parses its part once; only the caller bisects.
        assert all(pids.count(pid) == 1 for pid in set(pids) - {caller})
        assert len(set(pids) - {caller}) == count
        assert pids.count(caller) <= (1 if count else 0) + 15

    @pytest.mark.parametrize("count", HELPERS)
    def test_long_first_bad_line_wins(self, tmp_path, helpers, count):
        rows = ["0,A,100", "0,B,50", "0,A,101", "60,A,102", "60,B,51", "120,A,103",
                "120,B,52", "180,A,104", "240,A,oops"]
        path = tmp_path / "long.csv"
        path.write_text("t,asset,price\n" + "\n".join(rows) + "\n")
        helpers(count)
        with pytest.raises(ValueError, match=r"^line 4: duplicate \(timestamp, asset\) = "
                                             r"\(0\.0, A\)$"):
            ingest(str(path), "long", bars_per_day=1)
        rows[1] = "0,B,oops"
        path.write_text("t,asset,price\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="^line 3: unparseable price 'oops' for B$"):
            ingest(str(path), "long", bars_per_day=1)


@needs_fork
class TestFailedChild:
    """A child whose work raises, exits or stops half way has its part redone."""

    @pytest.mark.parametrize("how", ["raise", "exit"])
    def test_export_part_redone(self, tmp_path, helpers, monkeypatch, how):
        r = _returns(3, 5000, seed=3)
        helpers(0)
        export_panel(r, tmp_path / "serial.csv")
        helpers(3)
        action = _raise if how == "raise" else _exit
        monkeypatch.setattr(cli, "_bar_lines", _in_child(os.getpid(), action, cli._bar_lines))
        export_panel(r, tmp_path / "redone.csv")
        assert _bytes(tmp_path / "redone.csv") == _bytes(tmp_path / "serial.csv")

    @pytest.mark.parametrize("how", ["raise", "exit"])
    def test_panel_part_redone(self, tmp_path, helpers, monkeypatch, how):
        r = _returns(3, 5000, seed=4)
        export_panel(r, tmp_path / "panel.csv")
        helpers(3)
        action = _raise if how == "raise" else _exit
        monkeypatch.setattr(cli, "_parse_panel_rows",
                            _in_child(os.getpid(), action, cli._parse_panel_rows))
        assert np.array_equal(ingest(str(tmp_path / "panel.csv"), "panel").returns, r.returns)

    @pytest.mark.parametrize("how", ["raise", "exit"])
    def test_wide_part_redone(self, tmp_path, helpers, monkeypatch, how):
        path = tmp_path / "wide.csv"
        _write_wide(path, 3, 5000)
        helpers(0)
        with pytest.warns(UserWarning):
            serial = ingest(str(path), "wide", bars_per_day=7)
        helpers(3)
        action = _raise if how == "raise" else _exit
        monkeypatch.setattr(cli, "_price_rows", _in_child(os.getpid(), action, cli._price_rows))
        with pytest.warns(UserWarning):
            redone = ingest(str(path), "wide", bars_per_day=7)
        assert np.array_equal(redone.prices, serial.prices)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("half_sent", [False, True])
    def test_export_to_a_pipe(self, tmp_path, helpers, monkeypatch, half_sent):
        r = _returns(3, 5000, seed=9)
        export_panel(r, tmp_path / "file.csv")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(_bytes(fifo)), daemon=True)
        reader.start()
        helpers(3)
        if half_sent:
            monkeypatch.setattr(os, "write", _in_child(os.getpid(), _half_then_exit(os.write),
                                                       os.write))
        export_panel(r, fifo)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert got == [_bytes(tmp_path / "file.csv")]

    def test_half_sent_parts_are_redone(self, tmp_path, helpers, monkeypatch):
        r = _returns(3, 5000, seed=5)
        helpers(0)
        export_panel(r, tmp_path / "serial.csv")
        helpers(3)
        monkeypatch.setattr(os, "write", _in_child(os.getpid(), _half_then_exit(os.write),
                                                   os.write))
        export_panel(r, tmp_path / "redone.csv")
        assert _bytes(tmp_path / "redone.csv") == _bytes(tmp_path / "serial.csv")
        assert np.array_equal(ingest(str(tmp_path / "redone.csv"), "panel").returns, r.returns)


def _fork_failing_at(k):
    """An ``os.fork`` whose k-th call raises EAGAIN, and the list of its calls."""
    real, calls = os.fork, []

    def fork():
        calls.append(len(calls) + 1)
        if len(calls) == k:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()
    return fork, calls


@needs_fork
class TestForkFails:
    """A fork that fails (EAGAIN) leaves its part to the caller: the bytes and
    arrays are the serial path's."""

    CASES = [(1, 1), (3, 1), (3, 2)]  # (helpers, the fork that fails)

    @pytest.mark.parametrize("count, k", CASES)
    def test_export(self, tmp_path, helpers, monkeypatch, count, k):
        r = _returns(3, 5000, seed=11)
        helpers(0)
        export_panel(r, tmp_path / "serial.csv")
        helpers(count)
        fork, calls = _fork_failing_at(k)
        monkeypatch.setattr(os, "fork", fork)
        export_panel(r, tmp_path / "forked.csv")
        assert calls == list(range(1, count + 1))
        assert _bytes(tmp_path / "forked.csv") == _bytes(tmp_path / "serial.csv")

    @pytest.mark.parametrize("count, k", CASES)
    def test_panel_read(self, tmp_path, helpers, monkeypatch, count, k):
        r = _returns(3, 5000, seed=12)
        export_panel(r, tmp_path / "panel.csv")
        helpers(count)
        fork, calls = _fork_failing_at(k)
        monkeypatch.setattr(os, "fork", fork)
        back = ingest(str(tmp_path / "panel.csv"), "panel")
        assert calls == list(range(1, count + 1))
        assert np.array_equal(back.returns, r.returns)

    @pytest.mark.parametrize("count, k", CASES)
    def test_wide_read(self, tmp_path, helpers, monkeypatch, count, k):
        path = tmp_path / "wide.csv"
        _write_wide(path, 3, 5000, seed=13)
        helpers(0)
        with pytest.warns(UserWarning):
            serial = ingest(str(path), "wide", bars_per_day=7)
        helpers(count)
        fork, calls = _fork_failing_at(k)
        monkeypatch.setattr(os, "fork", fork)
        with pytest.warns(UserWarning):
            forked = ingest(str(path), "wide", bars_per_day=7)
        assert calls == list(range(1, count + 1))
        assert forked.assets == serial.assets
        assert np.array_equal(forked.prices, serial.prices)
        assert np.array_equal(forked.timestamps, serial.timestamps)


class TestReadErrors:
    """An input read that fails (EIO) is a ValueError naming the file.  Once
    the data lines are read in parts, every read past three quarters of the
    file fails: with a helper, the child's part fails, and the caller redoes
    it and raises."""

    @pytest.mark.parametrize("fmt", ["panel", "wide"])
    @pytest.mark.parametrize("count", (0, 1))
    def test_eio_mid_file_names_the_file(self, tmp_path, helpers, monkeypatch, fmt, count):
        path = tmp_path / f"{fmt}.csv"
        if fmt == "panel":
            export_panel(_returns(3, 5000, seed=14), path)
        else:
            _write_wide(path, 3, 5000, seed=14)
        bad_from = os.path.getsize(path) * 3 // 4
        parent, armed, failed = os.getpid(), [], []
        real_pread, real_parts = os.pread, cli._text_parts

        def pread(fd, size, pos):
            if armed and pos + size > bad_from:
                if os.getpid() == parent:
                    failed.append(pos)
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real_pread(fd, size, pos)

        def parts(*args):
            armed.append(True)
            return real_parts(*args)

        monkeypatch.setattr(os, "pread", pread)
        monkeypatch.setattr(cli, "_text_parts", parts)
        monkeypatch.setattr(cli, "_READ_CHUNK", 4096)
        helpers(count)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            with pytest.raises(ValueError) as exc:
                ingest(str(path), fmt, bars_per_day=7)
        assert str(exc.value) == f"input file {path}: cannot read it ({os.strerror(errno.EIO)})"
        # The caller fails once, at the bad offset; with a helper, that lies in
        # the child's part, which the caller reads only to redo it.
        assert len(failed) == 1 and bad_from - 4096 < failed[0] <= bad_from


class TestLongReadError:
    """The long reader, which does not fork, reads its file as text: a read
    that fails (EIO) half way through is a ValueError naming the file, and a
    run on it leaves no --out."""

    @pytest.fixture
    def failing_long(self, tmp_path, monkeypatch):
        path = tmp_path / "long.csv"
        with open(path, "w") as fh:
            fh.write("t,asset,price\n")
            for j in range(2000):
                fh.write("".join(f"{j * 60},{a},{100.0 + j % 7 + k}\n"
                                 for k, a in enumerate("ABC")))
        bad_from, reads = os.path.getsize(path) // 2, []

        class Failing(io.FileIO):
            def readinto(self, b):
                reads.append(self.tell())
                if self.tell() >= bad_from:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                return super().readinto(b)

        def fake_open(file, mode="r", **kwargs):
            if str(file) != str(path):
                return open(file, mode, **kwargs)
            return io.TextIOWrapper(io.BufferedReader(Failing(file), 4096), **kwargs)

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        yield path
        # The reads before the bad offset went through.
        assert reads[0] == 0 and reads[-1] >= bad_from and len(reads) > 2

    def test_names_the_file(self, failing_long):
        with pytest.raises(ValueError) as exc:
            ingest(str(failing_long), "long", bars_per_day=1)
        assert str(exc.value) == (
            f"input file {failing_long}: cannot read it ({os.strerror(errno.EIO)})")

    def test_run_leaves_no_out(self, failing_long, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--input", str(failing_long), "--format", "long",
                         "--bars-per-day", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f'{{"error": "input file {failing_long}: cannot read it')
        assert not out.exists()


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestNoChildOutlivesTheCall:
    @contextlib.contextmanager
    def _one_process(self, tmp_path):
        """Around a call: no child before or after, the same open fds, and the
        caller's `finally` runs once (no child came back through the stack)."""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        fds = _fd_count()
        marker = tmp_path / "finally.txt"
        try:
            yield
        finally:
            with open(marker, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        assert marker.read_text().splitlines() == [str(os.getpid())]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert _fd_count() == fds

    def test_after_success(self, tmp_path, helpers):
        r = _returns(4, 5000, seed=6)
        helpers(3)
        with self._one_process(tmp_path):
            export_panel(r, tmp_path / "panel.csv")
            ingest(str(tmp_path / "panel.csv"), "panel")

    def test_after_a_failed_part(self, tmp_path, helpers, monkeypatch):
        r = _returns(4, 5000, seed=7)
        export_panel(r, tmp_path / "panel.csv")
        helpers(3)
        monkeypatch.setattr(cli, "_parse_panel_rows",
                            _in_child(os.getpid(), _raise, cli._parse_panel_rows))
        with self._one_process(tmp_path):
            ingest(str(tmp_path / "panel.csv"), "panel")

    def test_after_a_bad_line_read(self, tmp_path, helpers):
        r = _returns(4, 5000, seed=8)
        path = tmp_path / "panel.csv"
        export_panel(r, path)
        lines = _bytes(path).decode().splitlines(keepends=True)
        lines[HEADER_LINES + 10] = "10,1,2,3,oops\n"
        path.write_text("".join(lines))
        helpers(3)
        with self._one_process(tmp_path):
            with pytest.raises(ValueError, match="^line 16: unparseable value"):
                ingest(str(path), "panel")


    def test_after_an_interrupt_mid_read(self, tmp_path, helpers, monkeypatch):
        r = _returns(4, 5000, seed=15)
        export_panel(r, tmp_path / "panel.csv")
        helpers(3)
        # The caller is interrupted in its own part, while its children read theirs.
        monkeypatch.setattr(cli, "_parse_panel_rows",
                            _in_child(os.getpid(), cli._parse_panel_rows, _interrupt))
        with self._one_process(tmp_path):
            with pytest.raises(KeyboardInterrupt):
                ingest(str(tmp_path / "panel.csv"), "panel")

    @pytest.mark.parametrize("fmt", ["panel", "wide"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_after_a_child_killed_mid_send(self, tmp_path, helpers, monkeypatch, fmt, count):
        # Each child sends half its rows, then dies of SIGKILL: the caller
        # redoes every child's part.
        path = tmp_path / f"{fmt}.csv"
        if fmt == "panel":
            export_panel(_returns(4, 5000, seed=16), path)
        else:
            _write_wide(path, 4, 5000, seed=16)
        read = lambda: ingest(str(path), fmt, bars_per_day=7)  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            helpers(0)
            serial = read()
            helpers(count)
            statuses, real_waitpid = [], os.waitpid

            def waitpid(pid, options):
                got = real_waitpid(pid, options)
                statuses.append(got[1])
                return got

            monkeypatch.setattr(os, "write", _in_child(os.getpid(), _half_then_kill(os.write),
                                                       os.write))
            monkeypatch.setattr(os, "waitpid", waitpid)
            with self._one_process(tmp_path):
                redone = read()
        assert len(statuses) == count
        assert all(os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
                   for status in statuses)
        if fmt == "panel":
            assert np.array_equal(redone.returns, serial.returns)
        else:
            assert redone.assets == serial.assets
            assert np.array_equal(redone.prices, serial.prices)
            assert np.array_equal(redone.timestamps, serial.timestamps)

    def test_interrupted_run_leaves_no_out(self, tmp_path, helpers, monkeypatch):
        r = _returns(4, 5000, seed=15)
        export_panel(r, tmp_path / "panel.csv")
        helpers(3)
        monkeypatch.setattr(cli, "_parse_panel_rows",
                            _in_child(os.getpid(), cli._parse_panel_rows, _interrupt))
        out = tmp_path / "out"
        with self._one_process(tmp_path):
            with pytest.raises(KeyboardInterrupt):
                cli.main(["spectrum", "--input", str(tmp_path / "panel.csv"), "--out", str(out)])
        assert not out.exists()


def _fed_through_fifo(tmp_path, data, read):
    """read(path) of a FIFO that a thread fills with `data`; the reader may stop early."""
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(str(fifo))
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()
        fifo.unlink()


ENDINGS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


def _outcome(read, path):
    """What a read of `path` gives: ('ok', value, warnings) or ('error', message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = read(path)
        except ValueError as exc:
            return ("error", str(exc))
    return ("ok", value, [str(w.message) for w in caught])


@needs_fork
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestLineEndingsAndPipes:
    """The 12 x 3000 panel (two parts with a helper) and a wide file of the same
    shape, with each line ending, from a file and from a FIFO, at each helper
    count: every read equals the LF file's, values and errors alike."""

    @staticmethod
    def _panel(out):
        if out[0] != "ok":
            return out
        r = out[1]
        return (out[0], r.assets, r.returns.tobytes(), r.standardized, r.bars_per_day,
                r.dt_seconds, out[2])

    @staticmethod
    def _wide(out):
        if out[0] != "ok":
            return out
        p = out[1]
        return (out[0], p.assets, p.prices.tobytes(), p.timestamps.tobytes(),
                p.bars_per_day, out[2])

    def _same_everywhere(self, tmp_path, helpers, lf, read, key):
        want = None
        for ending, eol in ENDINGS.items():
            data = lf.replace(b"\n", eol)
            path = tmp_path / f"{ending}.csv"
            path.write_bytes(data)
            for count in HELPERS:
                helpers(count)
                got = [key(_outcome(read, str(path))),
                       key(_fed_through_fifo(tmp_path, data, lambda p: _outcome(read, p)))]
                want = want or got[0]
                assert got == [want, want], (ending, count)
        return want

    def test_panel(self, tmp_path, helpers):
        path = tmp_path / "panel.csv"
        export_panel(_returns(12, 3000, seed=14), path)
        lf = _bytes(path)
        read = lambda p: ingest(p, "panel")  # noqa: E731
        ok = self._same_everywhere(tmp_path, helpers, lf, read, self._panel)
        assert ok[0] == "ok" and ok[2] == _returns(12, 3000, seed=14).returns.tobytes()
        for bar in (1500, 2500):
            lines = lf.split(b"\n")
            fields = lines[HEADER_LINES + bar].split(b",")
            fields[5] = b"x"
            lines[HEADER_LINES + bar] = b",".join(fields)
            bad = self._same_everywhere(tmp_path, helpers, b"\n".join(lines), read, self._panel)
            assert bad == ("error", f"line {HEADER_LINES + bar + 1}: unparseable value in "
                                    "panel file")

    @pytest.mark.parametrize("chunk", [61, 4096])
    def test_chunk_bounds(self, tmp_path, helpers, monkeypatch, chunk):
        # Reads of a few bytes at a time: a chunk can end inside a line, or
        # between a CR and its LF, and must still give the whole lines.
        export_panel(_returns(12, 3000, seed=14), tmp_path / "panel.csv")
        _write_wide(tmp_path / "wide.csv", 12, 3000)
        lines = _bytes(tmp_path / "panel.csv").split(b"\n")
        lines[HEADER_LINES + 2500] = b"2500" + b",x" * 12  # a line number to get right
        (tmp_path / "panel-bad.csv").write_bytes(b"\n".join(lines))
        lines = _bytes(tmp_path / "wide.csv").split(b"\n")
        lines[2501] = b"150000.0" + b",abc" * 12
        (tmp_path / "wide-bad.csv").write_bytes(b"\n".join(lines))
        cases = {"panel": (lambda p: ingest(p, "panel"), self._panel),
                 "wide": (lambda p: ingest(p, "wide", bars_per_day=7), self._wide)}
        for name, (read, key) in cases.items():
            for variant in (name, f"{name}-bad"):
                lf = tmp_path / f"{variant}.csv"
                want = key(_outcome(read, str(lf)))
                monkeypatch.setattr(cli, "_READ_CHUNK", chunk)
                for ending, eol in ENDINGS.items():
                    path = tmp_path / f"{variant}-{ending}.csv"
                    path.write_bytes(_bytes(lf).replace(b"\n", eol))
                    for count in (0, 1):
                        helpers(count)
                        got = key(_outcome(read, str(path)))
                        assert got == want, (variant, ending, count)
                monkeypatch.undo()
        assert want == ("error", "line 2502: unparseable price 'abc' for S0")

    def test_wide(self, tmp_path, helpers):
        path = tmp_path / "wide.csv"
        _write_wide(path, 12, 3000)
        lf = _bytes(path)
        read = lambda p: ingest(p, "wide", bars_per_day=7)  # noqa: E731
        ok = self._same_everywhere(tmp_path, helpers, lf, read, self._wide)
        assert ok[0] == "ok" and len(ok[1]) == 11 and len(ok[-1]) == 2  # S1 dropped, S0 filled
        for row in (1500, 2500):
            lines = lf.split(b"\n")
            fields = lines[1 + row].split(b",")
            fields[3] = b"abc"
            lines[1 + row] = b",".join(fields)
            bad = self._same_everywhere(tmp_path, helpers, b"\n".join(lines), read, self._wide)
            assert bad == ("error", f"line {row + 2}: unparseable price 'abc' for S2")


def _awkward_wide(path, eol):
    """A 4-asset wide file over 3001 bars with what the price reader must skip or
    mend: interior blanks, ' nan' cells, spaces around cells and all-comma
    records, every line ending in `eol`."""
    rng = np.random.default_rng(15)
    prices = 100.0 * np.exp(np.cumsum(1e-3 * rng.standard_normal((4, 3001)), axis=1))
    lines = ["timestamp, A ,B,C,D"]
    for j in range(3001):
        cells = [repr(float(v)) for v in prices[:, j]]
        if j % 400 == 7:
            cells[0] = ""
        if j % 500 == 9:
            cells[1] = " nan"
        if j % 3 == 0:
            cells[2] = f" {cells[2]} "
        lines.append(f"{j * 60.0!r}," + ",".join(cells))
        if j % 700 == 5:
            lines.append(",,,,")
    path.write_bytes((eol.join(lines) + eol).encode())


def _quote_one_cell(path, quoted):
    """Write `path` to `quoted` with line 10's cell 2 as '"<value>"'."""
    lines = _bytes(path).split(b"\n")
    fields = lines[10].split(b",")
    fields[2] = b'"' + fields[2] + b'"'
    lines[10] = b",".join(fields)
    quoted.write_bytes(b"\n".join(lines))


# Edits to the awkward wide file, each a bad line the reader must name the
# same way on both paths: (the bar whose line is replaced, its new text).
WIDE_EDITS = {
    "none": None,
    "bad_price": (1200, "72000.0,1.0,abc,2.0,3.0"),
    "short_line": (2600, "156000.0,1.0"),
    "bad_timestamp": (40, "t40,1.0,2.0,3.0,4.0"),
    "huge_field": (2000, "120000.0,1.0,2.0,3.0," + "9" * (2 ** 17 + 1)),
}


@needs_fork
class TestWidePathsAgree:
    """A wide file holding no '"' is split without the csv module; with one cell
    quoted, the same file goes through csv.reader.  Both give the same panel,
    warnings and errors."""

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("edit", sorted(WIDE_EDITS))
    def test_same_panel_warnings_and_errors(self, tmp_path, helpers, monkeypatch, eol, edit):
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        _awkward_wide(plain, eol)
        if WIDE_EDITS[edit]:
            bar, text = WIDE_EDITS[edit]
            lines = _bytes(plain).decode().split(eol)
            at = next(i for i, line in enumerate(lines) if line.startswith(f"{bar * 60.0!r},"))
            lines[at] = text
            plain.write_bytes(eol.join(lines).encode())
        _quote_one_cell(plain, quoted)
        read = lambda p: ingest(p, "wide", bars_per_day=10)  # noqa: E731
        key = TestLineEndingsAndPipes._wide
        for count in HELPERS:
            helpers(count)
            with monkeypatch.context() as m:
                m.setattr(cli, "_csv_records", _raise)  # the quote-free file never needs it
                fast = key(_outcome(read, str(plain)))
            slow = key(_outcome(read, str(quoted)))
            if slow[0] == "error":
                slow = ("error", slow[1].replace(str(quoted), str(plain)))
            assert slow == fast, (edit, count)
        if edit == "none":
            assert fast[0] == "ok" and fast[1] == ["A", "B", "C", "D"]
            assert fast[-1] == ["asset A: forward-filled 8 missing bar(s)",
                                "asset B: forward-filled 6 missing bar(s)"]
        else:
            assert fast[0] == "error"

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.text(st.characters(exclude_characters='"\r\n'), max_size=30)
           | st.lists(st.sampled_from(["", " ", "1", "x", "\t", "\x0c", "　", "nan"]),
                      max_size=5).map(",".join))
    def test_record_split_is_the_csv_readers(self, line):
        row = next(csv.reader([line + "\n"]))
        count, first, rest = cli._wide_record(line)
        if not any(f.strip() for f in row):
            assert count == 0
        else:
            assert count == len(row)
            assert ([first, *rest.split(",")] if "," in line else [first]) == row


# A price file with no record that holds more than whitespace, and how each
# reader gets it: (format, text added to the file, read from a FIFO).  The
# '""' record (one quoted blank field) sends a wide file to the csv reader.
EMPTY_FILES = {"0-byte": b"", "blank lines": b"\n  \n\r\n\t\n"}
EMPTY_READS = {
    "wide": ("wide", b"", False),
    "wide with a quote": ("wide", b'""\n', False),
    "wide from a FIFO": ("wide", b"", True),
    "long": ("long", b"", False),
}


class TestNoPrices:
    """The documented errors for a price file that holds no prices."""

    @pytest.mark.parametrize("body", sorted(EMPTY_FILES))
    @pytest.mark.parametrize("how", sorted(EMPTY_READS))
    def test_empty_file(self, tmp_path, how, body):
        fmt, extra, fifo = EMPTY_READS[how]
        if fifo and not hasattr(os, "mkfifo"):
            pytest.skip("needs os.mkfifo")
        read = lambda p: _outcome(lambda q: ingest(q, fmt, bars_per_day=1), p)  # noqa: E731
        data = EMPTY_FILES[body] + extra
        if fifo:
            got, path = _fed_through_fifo(tmp_path, data, read), tmp_path / "fifo.csv"
        else:
            path = tmp_path / "empty.csv"
            path.write_bytes(data)
            got = read(str(path))
        assert got == ("error", f"empty file: {path}")

    @pytest.mark.parametrize("fmt, text, message", [
        ("long", "t,asset,price\n", "no data rows in {}"),
        ("wide", "t,A\n0,100\n60,\n120,\n", "all assets dropped during missing-bar handling"),
    ])
    def test_no_prices_left(self, tmp_path, fmt, text, message):
        path = tmp_path / "prices.csv"
        path.write_text(text)
        assert _outcome(lambda p: ingest(p, fmt, bars_per_day=1), str(path)) == (
            "error", message.format(path))


@pytest.fixture(scope="module")
def peak_files(tmp_path_factory):
    """The bytes of the 100 x 8192 panel, and a folder holding its panel CSV,
    its wide price CSV, and a wide CSV of the same shape with asset S1 dropped
    (``_write_wide``)."""
    root = tmp_path_factory.mktemp("peaks")
    r = _returns(100, 8192, seed=16)
    export_panel(r, root / "panel.csv")
    # The prices of the panel's first 8191 returns, so 8192 bars, with a few
    # gaps (forward-filled) in every tenth asset.
    steps = np.cumsum(1e-3 * np.sign(r.returns[:, :-1]), axis=1)
    cells = np.hstack([np.zeros((100, 1)), steps]).tolist()
    for i in range(0, 100, 10):
        for j in range(100 + i, 8192, 1000):
            cells[i][j] = None
    with open(root / "wide.csv", "w") as fh:
        fh.write("timestamp," + ",".join(r.assets) + "\n")
        for j in range(8192):
            fh.write(f"{j * 60.0!r}," + ",".join(
                "" if row[j] is None else repr(100.0 + row[j]) for row in cells) + "\n")
    _write_wide(root / "wide-dropped.csv", 100, 8191)
    return r.returns.nbytes, root


class TestReadPeaks:
    """Peak bytes traced in the calling process while ``ingest`` reads a fixed
    100 x 8192 panel CSV and its wide price CSV, over the panel's bytes: the
    result is one panel, and the parts are one more while they are stacked."""

    @pytest.mark.parametrize("count", (0, 1))
    def test_panel_csv(self, peak_files, helpers, peak, count):
        unit, root = peak_files
        helpers(count)
        assert peak(lambda: ingest(str(root / "panel.csv"), "panel"), unit) <= 2.5

    @pytest.mark.parametrize("count", (0, 1))
    def test_wide_csv(self, peak_files, helpers, peak, count):
        unit, root = peak_files
        helpers(count)
        assert peak(lambda: ingest(str(root / "wide.csv"), "wide", bars_per_day=7), unit) <= 2.5

    @pytest.mark.parametrize("count", (0, 1))
    def test_wide_csv_with_a_dropped_asset(self, peak_files, helpers, peak, count):
        # The kept rows move down in place: dropping S1 copies no panel.
        unit, root = peak_files
        helpers(count)
        read = lambda: ingest(str(root / "wide-dropped.csv"), "wide", bars_per_day=7)  # noqa: E731
        assert peak(read, unit) <= 2.5

    def test_long_csv(self, tmp_path, peak):
        # 32 assets x 1024 bars, one record a line: four typed columns (4
        # panels), np.unique's sort and inverse, the cell sort and the prices
        # peak at about 9.4 panels; a tuple per record took about 28.
        n, t = 32, 1024
        steps = np.cumsum(1e-3 * np.sign(_returns(n, t, seed=17).returns), axis=1).tolist()
        path = tmp_path / "long.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,asset,price\n")
            for j in range(t):
                fh.writelines(f"{j * 60.0!r},S{i},{100.0 + steps[i][j]!r}\n" for i in range(n))
        assert peak(lambda: ingest(str(path), "long", bars_per_day=1), n * t * 8) <= 10.0


# Each subcommand's flags (beside --input and --out) and its bound, in panels.
RUN_PEAKS = {
    "spectrum": (["spectrum"], 2.5),
    "elements": (["elements", "--q-target", "2"], 2.5),
    "mfdfa": (["mfdfa", "--modes", "4"], 2.5),
    "report": (["report", "--factors", "1,7"], 2.5),
    "remove": (["remove", "--remove-count", "3"], 2.5),
    "shuffle_signs": (["surrogate", "--surrogate-kind", "shuffle_signs"], 2.5),
    "rotate_daily": (["surrogate", "--surrogate-kind", "rotate_daily"], 2.5),
    "wide": (["spectrum", "--format", "wide"], 2.5),
}


class TestRunPeaks:
    """Peak bytes traced in the calling process while a subcommand runs in
    process, with one helper, on the 100 x 8192 panel CSV (its wide CSV for
    ``--format wide``), over the panel's bytes.  The read alone peaks at about
    2.3; a whole-panel temporary would add 1.0."""

    @pytest.mark.parametrize("run", sorted(RUN_PEAKS))
    def test_peak(self, peak_files, helpers, peak, tmp_path, run):
        unit, root = peak_files
        flags, bound = RUN_PEAKS[run]
        name = "wide.csv" if "wide" in flags else "panel.csv"
        argv = [*flags, "--input", str(root / name), "--out", str(tmp_path / "out")]
        codes = []
        helpers(1)
        ratio = peak(lambda: codes.append(cli.main(argv)), unit)
        assert codes == [0]
        assert ratio <= bound

    def test_synth(self, helpers, peak, tmp_path, monkeypatch):
        # The one_factor preset cut to 100 x 8192: generated, then exported.
        monkeypatch.setattr(cli, "preset",
                            lambda name, seed=0: synth.preset(name, seed=seed, t_length=8192))
        argv = ["synth", "--preset", "one_factor", "--out", str(tmp_path / "out")]
        codes = []
        helpers(1)
        ratio = peak(lambda: codes.append(cli.main(argv)), 100 * 8192 * 8)
        assert codes == [0]
        assert ratio <= 2.25
