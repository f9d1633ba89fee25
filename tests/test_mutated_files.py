"""Mutated panel, wide and long files through `spectrum` and `remove`: each run
succeeds, or fails as a reported ValueError (exit 1) that leaves no file in
--out.  One panel file has 2100 bars, so its reads take the forked parser, and
a serial read of it must end the same way."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xcorr.panel
from xcorr.cli import export_panel, main
from xcorr.panel import ReturnPanel
from xcorr.synth import MarketModel, generate

TOKENS = ["nan", "inf", "-inf", "1e309", "", '"', "x", "0", "-1"]
OPS = ["truncate", "token", "insert", "delete", "header"]
# Lines before the first data line: the magic, three metadata comments and
# the column header of a panel file; the column header of a price file.
HEADER_LINES = {"panel": 5, "panel_big": 5, "wide": 1, "long": 1}


def _prices(n, t, seed):
    rng = np.random.default_rng(seed)
    return 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((n, t)), axis=1))


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """The unmutated files, as lists of lines."""
    root = tmp_path_factory.mktemp("base")
    files = {}
    # The small panel is raw returns, so a changed value still reads as a
    # panel; the big one is standardized, as synth writes it.
    big = generate(MarketModel(n_assets=4, t_length=2100, bars_per_day=10,
                               market_loading=0.5, seed=5))
    raw = ReturnPanel(big.assets, 0.01 * big.returns[:, :60], False, 10, 60.0)
    for name, r in (("panel", raw), ("panel_big", big)):
        path = root / f"{name}.csv"
        export_panel(r, path)
        files[name] = path.read_text().splitlines(keepends=True)
    prices = _prices(4, 61, seed=6)
    names = ["A", "B", "C", "D"]
    files["wide"] = ["t," + ",".join(names) + "\n"] + [
        f"{60 * j}," + ",".join(map(repr, prices[:, j].tolist())) + "\n"
        for j in range(prices.shape[1])
    ]
    files["long"] = ["t,asset,price\n"] + [
        f"{60 * j},{a},{float(prices[i, j])!r}\n"
        for j in range(prices.shape[1]) for i, a in enumerate(names)
    ]
    return files


def _mutate(lines, header_lines, op, at, pos, token):
    """One mutation of the file `lines`, in place."""
    if not lines:
        return
    k = at % (header_lines if op == "header" else len(lines))
    line = lines[k].rstrip("\n")
    if op == "truncate":
        lines[k] = line[: pos % (len(line) + 1)] + "\n"
    elif op == "delete":
        del lines[k]
    elif op == "insert":
        lines.insert(k, (token if pos % 2 else lines[pos % len(lines)].rstrip("\n")) + "\n")
    else:
        # A bad token in one field: a value or a name, or for "header" a
        # metadata key or value.
        sep = ":" if op == "header" and line.startswith("#") else ","
        fields = line.split(sep)
        fields[pos % len(fields)] = token
        lines[k] = sep.join(fields) + "\n"


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # forward-fill and drop notices
        rc = main(argv)
    return rc, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(HEADER_LINES)),
       mutations=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10**6),
                                    st.integers(0, 10**6), st.sampled_from(TOKENS)),
                          min_size=1, max_size=3))
def test_mutated_file_exits_cleanly(base_files, kind, mutations):
    lines = list(base_files[kind])
    for mutation in mutations:
        _mutate(lines, HEADER_LINES[kind], *mutation)
    fmt = "panel" if kind.startswith("panel") else kind
    extra = [] if fmt == "panel" else ["--bars-per-day", "10"]
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(root, f"{kind}.csv")
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)
        for command in ("spectrum", "remove"):
            out = os.path.join(root, command)
            argv = [command, "--input", path, "--format", fmt, *extra, "--out"]
            # Two text parts, so the 2100-bar panel is read by a child; the
            # serial read must end the same way, with the same message.
            mp.setattr(xcorr.panel, "_HELPERS", 1)
            rc, err = _run([*argv, out])
            if kind == "panel_big":
                mp.setattr(xcorr.panel, "_HELPERS", 0)
                assert _run([*argv, out + "-serial"]) == (rc, err), (kind, mutations)
            if rc == 0:
                assert "config.json" in os.listdir(out), (kind, mutations)
                continue
            assert rc == 1, (kind, mutations, err)
            assert json.loads(err.splitlines()[-1])["type"] == "ValueError", (kind, mutations, err)
            assert not os.path.exists(out), (kind, mutations)


# A bad line after an earlier bad value: the earlier line is reported, whether
# the bad line is short or holds a byte that is not UTF-8, and, in the 2100-bar
# panel (two parts with one helper, cut at bar 1050), whether the two lie in
# the same part or the bad line in a later part.  (kind, bad value's data row,
# bad line's data row, the bad value's error with its line number.)
ORDER_CASES = {
    "panel_same_part": ("panel_big", 1200, 1900, "line {}: unparseable value in panel file"),
    "panel_later_part": ("panel_big", 300, 1900, "line {}: unparseable value in panel file"),
    "wide": ("wide", 20, 40, "line {}: unparseable price 'x' for B"),
    "long": ("long", 21, 41, "line {}: unparseable price 'x' for B"),
}


@pytest.mark.parametrize("bad_line", ["short", "not_utf8"])
@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_bad_line_after_bad_value_names_the_value(base_files, tmp_path, monkeypatch, case,
                                                  bad_line):
    kind, value_row, line_row, message = ORDER_CASES[case]
    head = HEADER_LINES[kind]
    lines = [line.encode() for line in base_files[kind]]
    fields = lines[head + value_row].rstrip(b"\n").split(b",")
    fields[2] = b"x"  # asset B's value or price
    lines[head + value_row] = b",".join(fields) + b"\n"
    lines[head + line_row] = b"1,2\n" if bad_line == "short" else b"1,\xff,2\n"
    fmt = "panel" if kind.startswith("panel") else kind
    extra = [] if fmt == "panel" else ["--bars-per-day", "10"]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(b"".join(lines))
    want = message.format(head + value_row + 1)
    for helpers in (0, 1):
        monkeypatch.setattr(xcorr.panel, "_HELPERS", helpers)
        rc, err = _run(["spectrum", "--input", str(path), "--format", fmt, *extra,
                        "--out", str(tmp_path / f"out{helpers}")])
        assert rc == 1, (case, helpers, err)
        assert json.loads(err.splitlines()[-1])["error"] == want, (case, helpers)
