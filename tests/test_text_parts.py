"""Panel CSV text formatted and parsed in forked parts (``cli._in_parts``).

Every helper count must give the serial bytes, arrays and errors, and no
forked child may outlive the call that started it.
"""

import contextlib
import os
import threading

import numpy as np
import pytest

import xcorr.cli as cli
from xcorr import panel
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


def _half_then_exit(real):
    def write(fd, data):
        real(fd, memoryview(data)[:max(1, len(data) // 2)])
        os._exit(1)
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
            assert back.returns.flags.f_contiguous and not back.returns.flags.writeable

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
