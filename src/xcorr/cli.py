"""Command-line front end and file I/O.

Subcommands: spectrum, elements, remove, surrogate, mfdfa, synth, report.
Artifacts are deterministic given the effective config: JSON for structured
results, two-column text for plot data, CSV for panels.  Every artifact embeds
a hash of the effective config (output path excluded), and the effective
config itself is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import math
import operator
import os
import shutil
import signal
import sys
import tempfile
import warnings
from typing import NamedTuple

import numpy as np

from . import panel as _panel
from .mfdfa import MfdfaConfig, _geometric_scales, analyze, average_spectra
from .modes import eigensignals, remove_modes_iterative
from .panel import PricePanel, ReturnPanel, _frozen, coarsen, log_returns, standardize
from .spectrum import (
    correlation_matrix,
    eigendecompose,
    element_distribution,
    mp_bounds,
    overlap_fraction,
    windowed_element_distribution,
)
from .surrogate import KINDS, SurrogateSpec, apply_surrogate
from .synth import PRESET_NAMES, generate, preset

__all__ = ["main", "run", "ingest", "export_panel"]

PANEL_MAGIC = "xcorr-panel-v1"
MISSING_DROP_FRACTION = 0.05
MAX_Q_POINTS = 10_000
_MAX_SCALES = 10_000
_EXPORT_BLOCK = 1024
_PIPE_CHUNK = 1 << 20

_FIG_TAG = {
    "rotate_free": "fig3a-analogue",
    "rotate_daily": "fig3b-analogue",
    "shuffle_signs": "fig4a-analogue",
    "shuffle_magnitudes": "fig4b-analogue",
    "signs_only": "fig5a-analogue",
    "magnitudes_only": "fig5b-analogue",
}


# ---------------------------------------------------------------------------
# Panel CSV format
# ---------------------------------------------------------------------------

def export_panel(r: ReturnPanel, path, extra_comments=()):
    """Write a ReturnPanel in the native CSV format.

    Values are written with repr() so a read back is bit-identical.  Layout:
    comment header lines, then `bar,<asset>,...` and one row per time index.
    Rows are formatted in blocks of _EXPORT_BLOCK bars, so only one block of
    Python floats exists at a time.  The bars are cut into parts formatted on
    every core by :func:`_in_parts`; a forked child's text goes from its pipe
    to the file in chunks of at most _PIPE_CHUNK bytes.
    """
    _check_names(r.assets, f"panel file {path}")
    x = r.returns
    with open(path, "w", newline="") as fh:
        fh.write(f"# {PANEL_MAGIC}\n")
        fh.write(f"# standardized: {'true' if r.standardized else 'false'}\n")
        fh.write(f"# bars_per_day: {r.bars_per_day}\n")
        fh.write(f"# dt_seconds: {float(r.dt_seconds)!r}\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        fh.write("bar," + ",".join(r.assets) + "\n")
        fh.flush()
        body = fh.buffer  # the bar lines are ASCII, so their bytes go straight in
        sent = {}  # bytes of each child's part that reached the file

        def own(lo, hi):
            # What a failed child sent is a prefix of this text (it writes only
            # a whole, finished buffer), so the rest follows it: no seek, and
            # the path may be a pipe.
            skip = sent.get(lo, 0)
            for line in _bar_lines(x, lo, hi):
                body.write(line[skip:])
                skip = max(0, skip - len(line))

        def text(lo, hi):  # in a child: one buffer, grown in place
            buf = bytearray()
            for line in _bar_lines(x, lo, hi):
                buf += line
            return buf

        def take(lo, hi, fd):
            sent[lo] = 0
            while chunk := os.read(fd, _PIPE_CHUNK):
                sent[lo] += body.write(chunk)
            return True

        _in_parts(x.shape[1], text, take, own)


def _bar_lines(x, lo, hi):
    """The panel CSV lines of bars lo..hi of the returns `x`, as ASCII bytes;
    the floats of one block of _EXPORT_BLOCK bars exist at a time."""
    for s in range(lo, hi, _EXPORT_BLOCK):
        rows = x[:, s:min(s + _EXPORT_BLOCK, hi)].T.tolist()
        for j, row in enumerate(rows, start=s):
            yield f"{j},{','.join(map(repr, row))}\n".encode()


def _in_parts(n, emit, take, own):
    """Do a job over ``range(n)`` in contiguous parts, one per core, the parts
    after the first in forked children; each part is taken in part order.

    ``own(lo, hi)`` does the part ``[lo, hi)`` in the calling process.  A child
    runs ``emit(lo, hi)``, which returns the part as a bytes-like object,
    writes it to a pipe and leaves only through ``os._exit``.  In the caller,
    ``take(lo, hi, fd)`` reads that pipe and says whether the part was whole.
    A part whose child failed (an exit status other than 0, or a short read) is
    redone by ``own``, so every error, and its order, is the serial loop's.

    There are ``1 + panel._HELPERS`` parts (a child process has its own GIL),
    none shorter than _EXPORT_BLOCK, and one where ``os.fork`` is missing.
    A forked child reads the caller's data where it lies, with nothing to
    pickle; it calls only numpy and the float and text builtins, no lock the
    idle row-block threads could hold.  Every child is reaped before this
    returns, and killed first if it raises.
    """
    k = max(1, min(1 + _panel._HELPERS, n // _EXPORT_BLOCK)) if hasattr(os, "fork") else 1
    cuts = [n * i // k for i in range(k + 1)]
    parts = list(zip(cuts[:-1], cuts[1:]))
    children = []  # [pid, fd] of each part after the first; None: not forked
    try:
        for lo, hi in parts[1:]:
            children.append(_fork_part(emit, lo, hi))
        own(*parts[0])
        for (lo, hi), child in zip(parts[1:], children):
            whole = False
            if child is not None:
                whole = take(lo, hi, child[1])
                os.close(child[1])
                child[1] = None
                whole = os.waitpid(child[0], 0)[1] == 0 and whole
                child[0] = None
            if not whole:
                own(lo, hi)
    finally:
        for child in filter(None, children):
            pid, fd = child
            if fd is not None:
                os.close(fd)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_part(emit, lo, hi):
    """Fork a child that writes ``emit(lo, hi)`` to a pipe; [pid, read fd], or
    None if the fork failed (the caller then does the part)."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            gc.disable()  # a collection would touch, and so copy, the parent's heap
            os.close(r)
            data = memoryview(emit(lo, hi)).cast("B")
            while data:
                data = data[os.write(w, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return [pid, r]


def _rows_in_parts(parse, n_rows, n_cols):
    """A (n_rows, n_cols) float64 array whose rows lo..hi are ``parse(lo, hi)``,
    the parts parsed in forked children by :func:`_in_parts`."""
    out = np.empty((n_rows, n_cols))

    def own(lo, hi):
        out[lo:hi] = parse(lo, hi)

    def take(lo, hi, fd):
        view = memoryview(out[lo:hi]).cast("B")
        while view:
            got = os.readv(fd, [view])
            if not got:
                return False
            view = view[got:]
        return True

    _in_parts(n_rows, parse, take, own)
    return out


def _check_names(names, where):
    """Each asset name must be non-empty, free of ',', '\\r' and '\\n' (a panel
    CSV header could not carry it) and unique; else a ValueError naming `where`."""
    seen = set()
    for a in names:
        bad = next((c for c in ",\r\n" if c in a), None)
        if not a or bad:
            why = "is empty" if not a else f"contains {bad!r}"
            raise ValueError(f"{where}: asset name {a!r} {why}; a panel CSV cannot carry it")
        if a in seen:
            raise ValueError(f"{where}: duplicate asset name {a!r} in header")
        seen.add(a)


def _parse_panel_rows(lines, n_fields):
    """The value columns of panel data lines, one array row per line.

    numpy's parser rounds correctly, so every value written with repr() reads
    back bit-identical; the bar column is not parsed.
    """
    return np.loadtxt(lines, delimiter=",", usecols=range(1, n_fields),
                      comments=None, ndmin=2)


def _header_number(path, meta, key, default, kind):
    """A positive header value; an int must be whole, a float finite."""
    text = meta.get(key, default)
    try:
        value = kind(text)
        ok = value > 0 and (kind is int or math.isfinite(value))
    except ValueError:
        ok = False
    if not ok:
        what = "a positive integer" if kind is int else "a finite positive number"
        raise ValueError(f"{path}: header {key!r} must be {what}, got {text!r}")
    return value


def _read_panel_csv(path) -> ReturnPanel:
    meta = {}
    header = None
    lines, linenos = [], []
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, val = body.partition(":")
                    meta[key.strip()] = val.strip()
                elif header is None and not meta:
                    meta["magic"] = body
                continue
            if header is None:
                header = line.split(",")
                if header[0] != "bar" or len(header) < 2:
                    raise ValueError(f"line {lineno}: panel header must be 'bar,<assets...>'")
                _check_names(header[1:], f"line {lineno}")
                commas = len(header) - 1
                continue
            if line.count(",") != commas:
                raise ValueError(
                    f"line {lineno}: expected {len(header)} fields, got {line.count(',') + 1}"
                )
            lines.append(line)
            linenos.append(lineno)
    if meta.get("magic") != PANEL_MAGIC:
        raise ValueError(f"not a {PANEL_MAGIC} file: {path}")
    if header is None or not lines:
        raise ValueError(f"panel file {path} has no data rows")
    standardized = meta.get("standardized", "false")
    if standardized not in ("true", "false"):
        raise ValueError(
            f"{path}: header 'standardized' must be true or false, got {standardized!r}"
        )
    bars_per_day = _header_number(path, meta, "bars_per_day", "1", int)
    dt_seconds = _header_number(path, meta, "dt_seconds", "60.0", float)
    n_fields = len(header)
    try:
        values = _rows_in_parts(lambda lo, hi: _parse_panel_rows(lines[lo:hi], n_fields),
                                len(lines), n_fields - 1)
    except ValueError:
        # Find the first bad line with the same parser, one line at a time.
        for line, lineno in zip(lines, linenos):
            try:
                _parse_panel_rows([line], len(header))
            except ValueError:
                raise ValueError(f"line {lineno}: unparseable value in panel file") from None
        raise
    return ReturnPanel(
        assets=header[1:],
        returns=_frozen(values).T,
        standardized=standardized == "true",
        bars_per_day=bars_per_day,
        dt_seconds=dt_seconds,
    )


def _timestamp(token, lineno):
    """A finite timestamp parsed from `token`, or a ValueError naming the line."""
    try:
        ts = float(token)
    except ValueError:
        raise ValueError(f"line {lineno}: unparseable timestamp {token!r}") from None
    if not math.isfinite(ts):
        raise ValueError(f"line {lineno}: non-finite timestamp {token!r}")
    return ts


def _read_wide_csv(path, bars_per_day) -> PricePanel:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        if len(header) < 2:
            raise ValueError("wide CSV needs a time column plus at least one asset")
        assets = [a.strip() for a in header[1:]]
        _check_names(assets, "line 1")
        # Each row's price cells are kept as one comma-joined string, not one
        # object per cell; a row with a comma inside a cell holds no price.
        timestamps, rows, linenos = [], [], []
        stop = None  # the first bad line's error, raised after the prices before it
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not f.strip() for f in row):
                    continue
                if len(row) != len(header):
                    raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
                timestamps.append(_timestamp(row[0], lineno))
                cells = ",".join(row[1:])
                if cells.count(",") != len(row) - 2:
                    for a, c in zip(assets, row[1:]):
                        _price(c, a, lineno)  # raises at the first bad cell
                rows.append(cells)
                linenos.append(lineno)
        except (ValueError, csv.Error) as exc:
            stop = exc
    values = _rows_in_parts(lambda lo, hi: _price_rows(rows[lo:hi], linenos[lo:hi], assets),
                            len(rows), len(assets))
    if stop is not None:
        raise stop
    if not rows:
        raise ValueError(f"no data rows in {path}")
    prices, assets = _fill_missing(values.T, assets)
    return PricePanel(
        assets=assets,
        timestamps=np.array(timestamps, dtype=float),
        prices=prices,
        bars_per_day=bars_per_day,
    )


def _price_rows(rows, linenos, assets):
    """Comma-joined wide CSV price cells as float64 rows, NaN for a blank cell."""
    out = np.empty((len(rows), len(assets)))
    for k, row in enumerate(rows):
        cells = row.split(",")
        try:
            out[k] = list(map(float, cells))  # float() strips what strip() would
        except ValueError:  # a blank cell, or a bad one: one cell at a time
            out[k] = [_price(c, a, linenos[k]) for a, c in zip(assets, cells)]
    return out


def _price(cell, asset, lineno):
    """One wide CSV price cell: NaN if blank, else a float or a ValueError naming the line."""
    cell = cell.strip()
    if not cell:
        return np.nan
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"line {lineno}: unparseable price {cell!r} for {asset}") from None


def _read_long_csv(path, bars_per_day) -> PricePanel:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        records = []
        asset_index = {}  # asset name -> row, in order of first appearance
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected timestamp,asset,price")
            ts, asset = _timestamp(row[0], lineno), row[1].strip()
            if asset not in asset_index:
                _check_names([asset], f"line {lineno}")
                asset_index[asset] = len(asset_index)
            try:
                price = float(row[2])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: unparseable price {row[2]!r} for {asset}"
                ) from None
            records.append((ts, asset, price, lineno))
    if not records:
        raise ValueError(f"no data rows in {path}")

    grid = sorted({ts for ts, _, _, _ in records})
    grid_index = {ts: i for i, ts in enumerate(grid)}
    assets = list(asset_index)

    prices = np.full((len(assets), len(grid)), np.nan)
    filled = np.zeros(prices.shape, dtype=bool)
    for ts, asset, price, lineno in records:
        i, j = asset_index[asset], grid_index[ts]
        if filled[i, j]:
            raise ValueError(f"line {lineno}: duplicate (timestamp, asset) = ({ts}, {asset})")
        filled[i, j] = True
        prices[i, j] = price

    prices, assets = _fill_missing(prices, assets)
    return PricePanel(
        assets=assets,
        timestamps=np.array(grid, dtype=float),
        prices=prices,
        bars_per_day=bars_per_day,
    )


def _fill_missing(prices, assets):
    """Forward-fill missing prices; drop assets missing more than 5% of bars."""
    n_bars = prices.shape[1]
    keep, kept_names = [], []
    for i, name in enumerate(assets):
        missing = int(np.isnan(prices[i]).sum())
        if missing == 0:
            keep.append(i)
            kept_names.append(name)
            continue
        if missing > MISSING_DROP_FRACTION * n_bars:
            warnings.warn(
                f"asset {name} missing {missing}/{n_bars} bars (> 5%); dropped"
            )
            continue
        if np.isnan(prices[i, 0]):
            raise ValueError(f"asset {name} has no price at the first bar; cannot forward-fill")
        # Each bar takes the price at the last bar up to it that has one.
        last = np.maximum.accumulate(np.where(np.isnan(prices[i]), 0, np.arange(n_bars)))
        prices[i] = prices[i, last]
        warnings.warn(f"asset {name}: forward-filled {missing} missing bar(s)")
        keep.append(i)
        kept_names.append(name)
    if not keep:
        raise ValueError("all assets dropped during missing-bar handling")
    return prices[keep], kept_names


def ingest(path, format: str, bars_per_day: int = 78):
    """Read one input file: 'panel' -> ReturnPanel, 'wide'/'long' -> PricePanel."""
    if not os.path.exists(path):
        raise ValueError(f"input file not found: {path}")
    if os.path.isdir(path):
        raise ValueError(f"--input {path} is a directory, not a file")
    if format == "panel":
        return _read_panel_csv(path)
    if format == "wide":
        return _read_wide_csv(path, bars_per_day)
    if format == "long":
        return _read_long_csv(path, bars_per_day)
    raise ValueError(f"unknown format {format!r}; choose panel, wide or long")


# ---------------------------------------------------------------------------
# Config handling and artifact plumbing
# ---------------------------------------------------------------------------

class _Flag(NamedTuple):
    """One config key: the flag ``--<key>`` and the config-file entry ``key``.

    ``commands`` names the subcommands that take the flag; None means all.
    A number must satisfy each bound that is set: ``ge`` (at least), ``gt``
    (above), ``le`` (at most) and ``lt`` (below); a float must be finite.
    """

    type: type
    default: object
    help: str
    commands: tuple = None
    choices: tuple = None
    ge: float = None
    gt: float = None
    le: float = None
    lt: float = None


_FLAGS = {
    "input": _Flag(str, None, "input file path"),
    "format": _Flag(str, "panel", "input file format", choices=("long", "wide", "panel")),
    "bars_per_day": _Flag(int, 78, "grid points per trading day", ge=1, lt=2**63),
    "preset": _Flag(str, None, "generate input from a synthetic-market preset",
                    choices=PRESET_NAMES),
    "seed": _Flag(int, None, "random seed (falls back to env XCORR_SEED, then 0)",
                  ge=0, lt=2**64),
    "q_target": _Flag(float, None, "pool windows of aspect ratio Q = q_target instead of "
                      "the full panel", ("elements",), gt=0.0),
    "bins": _Flag(int, 50, "histogram bin count", ("elements", "report"), ge=10, le=10_000),
    "remove_count": _Flag(int, 1, "number of modes to remove", ("remove",), ge=1),
    "from_original": _Flag(bool, False, "regress on the original panel's eigensignals "
                           "instead of re-diagonalizing each pass", ("remove",)),
    "surrogate_kind": _Flag(str, None, "which randomization to apply", ("surrogate",),
                            choices=KINDS),
    "modes": _Flag(int, 4, "number of leading eigensignals", ("mfdfa",), ge=1),
    "q_grid": _Flag(str, "-4:4:0.2", "moment grid as min:max:step", ("mfdfa",)),
    "detrend_order": _Flag(int, 2, "polynomial detrending order", ("mfdfa",)),
    "scales": _Flag(str, None, "segment lengths: min:max:count (geometric) or comma list",
                    ("mfdfa",)),
    "factors": _Flag(str, "1,2,5,10", "comma list of coarsening factors", ("report",)),
    "out": _Flag(str, "xcorr_out", "output directory"),
}

DEFAULTS = {key: f.default for key, f in _FLAGS.items()}

_BOUNDS = (("ge", operator.ge, "at least"), ("gt", operator.gt, "above"),
           ("le", operator.le, "at most"), ("lt", operator.lt, "below"))


def _flag_name(key):
    return "--" + key.replace("_", "-")


def _check_file_value(path, key, val):
    """A config-file value, checked against the type and choices of its flag."""
    f = _FLAGS[key]
    nullable = f.default is None
    if val is None and nullable:
        return val
    if f.type is float and type(val) is int and abs(val) <= sys.float_info.max:
        return float(val)
    if type(val) is not f.type or (f.choices and val not in f.choices):
        want = f"one of {list(f.choices)}" if f.choices else f.type.__name__
        raise ValueError(f"config file {path}: {key!r} must be {want}"
                         f"{' or null' if nullable else ''}, got {val!r}")
    return val


def _check_bounds(key, val, name):
    """Raise a ValueError naming `name` if the number `val` breaks a bound of `key`."""
    f = _FLAGS[key]
    if val is None:
        return
    if f.type is float and not math.isfinite(val):
        raise ValueError(f"{name} must be finite, got {val!r}")
    for bound, holds, words in _BOUNDS:
        limit = getattr(f, bound)
        if limit is not None and not holds(val, limit):
            raise ValueError(f"{name} must be {words} {limit}, got {val!r}")


def _effective_config(args) -> dict:
    cfg = dict(DEFAULTS)
    cfg["subcommand"] = args.command
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as e:
            raise ValueError(f"--config {args.config}: {e.strerror}") from None
        except json.JSONDecodeError as e:
            raise ValueError(f"config file {args.config}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({k: _check_file_value(args.config, k, v) for k, v in file_cfg.items()})
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["seed"] is None:
        env = os.environ.get("XCORR_SEED")
        if env is not None:
            try:
                cfg["seed"] = int(env)
            except ValueError:
                raise ValueError(f"XCORR_SEED must be an integer, got {env!r}") from None
            _check_bounds("seed", cfg["seed"], "XCORR_SEED")
        else:
            cfg["seed"] = 0
    for key in _FLAGS:
        _check_bounds(key, cfg[key], _flag_name(key))
    if args.command == "mfdfa":
        _mfdfa_config(cfg)  # a bad grid flag fails here, before --out is created
    explicit_bpd = "bars_per_day" in file_cfg or getattr(args, "bars_per_day", None) is not None
    if explicit_bpd and (cfg["preset"] or cfg["format"] == "panel"):
        source = "the preset" if cfg["preset"] else "the panel file header"
        raise ValueError(
            f"--bars-per-day {cfg['bars_per_day']!r} would be ignored: {source} sets "
            "the bars per day; pass it only with --format wide or long"
        )
    return cfg


def config_hash(cfg: dict) -> str:
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    payload = json.dumps(hashed, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _write_json(out_dir, name, obj):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def _write_plot(out_dir, name, tag, cfg_hash, col_names, xs, ys):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(f"# {tag}\n")
        fh.write(f"# config_hash: {cfg_hash}\n")
        fh.write(f"# {col_names[0]} {col_names[1]}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r} {float(y)!r}\n")
    return path


@contextlib.contextmanager
def _output_dir(path):
    """Create the output directory and hold a lock file in it for the run."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ValueError(f"--out {path}: cannot create the output directory "
                         f"({e.strerror})") from None
    lock = os.path.join(path, ".xcorr-lock")
    try:
        os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        raise ValueError(
            f"output directory {path} is locked by another run (remove {lock} if stale)"
        ) from None
    try:
        yield path
    finally:
        with contextlib.suppress(OSError):
            os.remove(lock)


def _load_panel(cfg) -> ReturnPanel:
    if cfg.get("preset"):
        model = preset(cfg["preset"], seed=cfg["seed"])
        return generate(model)
    if not cfg.get("input"):
        raise ValueError("provide --input or --preset")
    obj = ingest(cfg["input"], cfg["format"], bars_per_day=cfg["bars_per_day"])
    r = log_returns(obj) if isinstance(obj, PricePanel) else obj
    return r if r.standardized else standardize(r)


def _parse_q_grid(text) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"--q-grid must be 'min:max:step', got {text!r}") from None
    if not (np.isfinite([lo, hi, step]).all() and step > 0 and hi > lo):
        raise ValueError(f"--q-grid needs finite min < max and a step > 0, got {text!r}")
    span = (hi - lo) / step
    if span + 1 > MAX_Q_POINTS:
        raise ValueError(
            f"--q-grid {text!r} has about {span + 1:.3g} moments; "
            f"at most {MAX_Q_POINTS} are allowed"
        )
    n = round(span)
    if abs(span - n) > 1e-9 * span:
        raise ValueError(
            f"--q-grid step {step!r} does not divide max - min = {hi - lo!r} "
            f"into whole steps, got {text!r}"
        )
    q = lo + step * np.arange(n + 1)
    q[np.abs(q) < 1e-12] = 0.0
    return q


def _parse_factors(text) -> list:
    try:
        factors = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        factors = []
    if not factors or min(factors) < 1:
        raise ValueError(f"--factors must be a comma list of positive integers, got {text!r}")
    return factors


def _parse_scales(text):
    if text is None:
        return None
    geometric = ":" in text
    try:
        numbers = [int(x) for x in text.split(":" if geometric else ",")]
    except ValueError:
        numbers = []
    if not numbers or (geometric and len(numbers) != 3) or not all(0 < x < 2**62 for x in numbers):
        raise ValueError(f"--scales must be 'min:max:count' or a comma list, with positive "
                         f"integers below 2**62; got {text!r}")
    if not geometric:
        return np.array(sorted(set(numbers)))
    lo, hi, count = numbers
    if count > _MAX_SCALES:
        raise ValueError(
            f"--scales {text!r} asks for {count} scales; at most {_MAX_SCALES} are allowed"
        )
    return _geometric_scales(lo, hi, count)


def _mfdfa_config(cfg) -> MfdfaConfig:
    return MfdfaConfig(
        q_grid=_parse_q_grid(cfg["q_grid"]),
        detrend_order=int(cfg["detrend_order"]),
        scale_grid=_parse_scales(cfg["scales"]),
    )


def _spectrum_payload(r: ReturnPanel):
    c = correlation_matrix(r)
    s = eigendecompose(c)
    b = mp_bounds(c.t_length / c.n_series)
    return c, s, b, overlap_fraction(s, b)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _run_spectrum(cfg, out, h):
    r = _load_panel(cfg)
    _, s, b, gamma = _spectrum_payload(r)
    payload = s.to_dict()
    payload.update(
        {
            "config_hash": h,
            "n_series": r.n_assets,
            "t_length": r.t_length,
            "mp": b.to_dict(),
            "overlap_fraction": gamma,
        }
    )
    _write_json(out, "spectrum.json", payload)
    ranks = np.arange(1, s.n_series + 1)
    _write_plot(out, "fig2a-analogue.txt", "fig2a-analogue", h,
                ("rank", "eigenvalue"), ranks, s.eigenvalues)


def _run_elements(cfg, out, h):
    r = _load_panel(cfg)
    if cfg["q_target"] is not None:
        dist = windowed_element_distribution(r, float(cfg["q_target"]), int(cfg["bins"]))
    else:
        c = correlation_matrix(r)
        dist = element_distribution(c, int(cfg["bins"]))
    payload = dist.to_dict()
    payload["config_hash"] = h
    _write_json(out, "elements.json", payload)
    centers = 0.5 * (dist.bin_edges[:-1] + dist.bin_edges[1:])
    _write_plot(out, "fig1-analogue.txt", "fig1-analogue", h,
                ("element", "density"), centers, dist.densities)


def _run_remove(cfg, out, h):
    r = _load_panel(cfg)
    res = remove_modes_iterative(r, int(cfg["remove_count"]),
                                 from_original=bool(cfg["from_original"]))
    # spectra[p] is the spectrum entering pass p + 1, i.e. after p removals;
    # only the residual left by the last pass still needs diagonalizing.
    _, s_final, _, _ = _spectrum_payload(res.panel)
    passes = []
    for p, s in enumerate([*res.spectra[1:], s_final], start=1):
        passes.append(
            {
                "removed": p,
                "eigenvalues": s.eigenvalues.tolist(),
                "overlap_fraction": overlap_fraction(s, mp_bounds(s.source_q)),
                "n_series": s.n_series,
            }
        )
    s0 = res.spectra[0]
    b = mp_bounds(s0.source_q)
    payload = res.to_dict()
    payload.update(
        {
            "config_hash": h,
            "original_eigenvalues": s0.eigenvalues.tolist(),
            "original_overlap_fraction": overlap_fraction(s0, b),
            "mp": b.to_dict(),
            "passes_spectra": passes,
        }
    )
    _write_json(out, "remove.json", payload)
    export_panel(res.panel, os.path.join(out, "residual_panel.csv"),
                 extra_comments=[f"config_hash: {h}"])
    _write_plot(out, "fig2c-analogue.txt", "fig2c-analogue", h,
                ("rank", "eigenvalue"), np.arange(1, s_final.n_series + 1), s_final.eigenvalues)


def _run_surrogate(cfg, out, h):
    if not cfg["surrogate_kind"]:
        raise ValueError(f"--surrogate-kind is required; choose one of {KINDS}")
    spec = SurrogateSpec(kind=cfg["surrogate_kind"], seed=cfg["seed"])
    r = _load_panel(cfg)
    sur = apply_surrogate(r, spec)
    if not sur.standardized:
        sur = standardize(sur)
    _, s0, b, _ = _spectrum_payload(r)
    _, s1, _, gamma1 = _spectrum_payload(sur)
    _write_json(
        out,
        "surrogate.json",
        {
            "config_hash": h,
            "surrogate": spec.to_dict(),
            "original_eigenvalues": s0.eigenvalues.tolist(),
            "surrogate_eigenvalues": s1.eigenvalues.tolist(),
            "lambda1_ratio": float(s1.eigenvalues[0] / s0.eigenvalues[0]),
            "mp": b.to_dict(),
            "surrogate_overlap_fraction": gamma1,
            "surrogate_support_width": float(s1.eigenvalues[0] - s1.eigenvalues[-1]),
        },
    )
    export_panel(sur, os.path.join(out, "surrogate_panel.csv"),
                 extra_comments=[f"config_hash: {h}"])
    tag = _FIG_TAG[spec.kind]
    _write_plot(out, f"{tag}.txt", tag, h, ("rank", "eigenvalue"),
                np.arange(1, s1.n_series + 1), s1.eigenvalues)


def _run_mfdfa(cfg, out, h):
    r = _load_panel(cfg)
    n_modes = int(cfg["modes"])
    if n_modes > r.n_assets:
        raise ValueError(f"--modes {n_modes} exceeds the number of assets N={r.n_assets}")
    _, s, _, _ = _spectrum_payload(r)
    mf_cfg = _mfdfa_config(cfg)
    per_mode = []
    spectra = []
    for z in eigensignals(r, s, range(1, n_modes + 1)):
        surface, spec = analyze(z.series, mf_cfg)
        spectra.append(spec)
        entry = spec.to_dict()
        entry["mode"] = z.index
        entry["eigenvalue"] = z.eigenvalue
        entry["surface"] = surface.to_dict()
        per_mode.append(entry)
    avg = average_spectra(spectra)
    _write_json(
        out,
        "mfdfa.json",
        {"config_hash": h, "per_mode": per_mode, "average": avg.to_dict()},
    )
    first = spectra[0]
    _write_plot(out, "fig6-analogue.txt", "fig6-analogue", h,
                ("q", "h"), first.q, first.h)
    _write_plot(out, "fig7-analogue.txt", "fig7-analogue", h,
                ("alpha", "f"), avg.alpha, avg.f)


def _run_synth(cfg, out, h):
    if not cfg["preset"]:
        raise ValueError(f"--preset is required; choose one of {PRESET_NAMES}")
    model = preset(cfg["preset"], seed=cfg["seed"])
    r = generate(model)
    export_panel(r, os.path.join(out, "panel.csv"),
                 extra_comments=[f"config_hash: {h}"])
    _write_json(out, "synth.json", {"config_hash": h, "model": model.to_dict()})


def _run_report(cfg, out, h):
    r = _load_panel(cfg)
    c, s, b, gamma = _spectrum_payload(r)
    dist = element_distribution(c, int(cfg["bins"]))
    lam_vs_factor = []
    for factor in _parse_factors(cfg["factors"]):
        sc = s if factor == 1 else _spectrum_payload(standardize(coarsen(r, factor)))[1]
        lam_vs_factor.append([factor, float(sc.eigenvalues[0])])
    _write_json(
        out,
        "report.json",
        {
            "config_hash": h,
            "spectrum": {
                "eigenvalues": s.eigenvalues.tolist(),
                "overlap_fraction": gamma,
                "mp": b.to_dict(),
            },
            "elements": {
                "gaussian_mu": dist.gaussian_mu,
                "gaussian_sigma": dist.gaussian_sigma,
                "tail_deviation": dist.tail_deviation,
                "degenerate": dist.degenerate,
            },
            "lambda1_vs_coarsening": lam_vs_factor,
        },
    )
    _write_plot(out, "lambda1-vs-coarsening.txt", "lambda1-vs-coarsening-analogue", h,
                ("factor", "lambda1"),
                [f for f, _ in lam_vs_factor], [l for _, l in lam_vs_factor])


# Each subcommand's runner and its --help line.  A runner writes its artifacts
# into the directory it is given, or raises.
_COMMANDS = {
    "spectrum": (_run_spectrum, "correlation spectrum vs Marchenko-Pastur bounds"),
    "elements": (_run_elements, "distribution of correlation-matrix elements"),
    "remove": (_run_remove, "iterative collective-mode removal"),
    "surrogate": (_run_surrogate, "randomized surrogate panel and its spectrum"),
    "mfdfa": (_run_mfdfa, "multifractal DFA of the leading eigensignals"),
    "synth": (_run_synth, "generate a synthetic market panel"),
    "report": (_run_report, "combined JSON summary incl. lambda1 vs coarsening"),
}


def run(subcommand: str, cfg: dict) -> int:
    """Execute one subcommand with an effective config dict; returns exit code 0."""
    if subcommand not in _COMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    h = config_hash(cfg)
    with _output_dir(cfg["out"]) as out:
        # Artifacts go to a partial directory first and move into place only
        # once the runner has succeeded, so a failed run leaves no partial set.
        partial = tempfile.mkdtemp(prefix=".xcorr-partial-", dir=out)
        try:
            echoed = {k: v for k, v in cfg.items() if k != "out"}
            echoed["config_hash"] = h
            _write_json(partial, "config.json", echoed)
            _COMMANDS[subcommand][0](cfg, partial, h)
            for name in sorted(os.listdir(partial)):
                os.replace(os.path.join(partial, name), os.path.join(out, name))
            return 0
        finally:
            shutil.rmtree(partial, ignore_errors=True)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="xcorr",
        description="Spectral and multifractal analysis of cross-correlations "
        "in multivariate return series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, f in _FLAGS.items():
            if f.commands is not None and command not in f.commands:
                continue
            # Every flag defaults to None, so a flag left out does not
            # override the config file.
            if f.type is bool:
                kwargs = {"action": "store_const", "const": True}
            else:
                kwargs = {"type": f.type, "choices": f.choices}
            shown = f.default is not None and f.type is not bool
            p.add_argument(_flag_name(key), dest=key, **kwargs,
                           help=f"{f.help} (default {f.default})" if shown else f.help)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        return run(args.command, cfg)
    except Exception as e:  # analysis errors -> machine-readable JSON on stderr
        sys.stderr.write(json.dumps({"error": str(e), "type": type(e).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
