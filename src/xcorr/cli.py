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
import io
import itertools
import json
import math
import operator
import os
import re
import shutil
import signal
import stat
import sys
import tempfile
import warnings
from array import array
from typing import NamedTuple

import numpy as np

try:
    import fcntl
except ImportError:  # no flock: the lock file is created exclusively instead
    fcntl = None

from . import panel as _panel
from .mfdfa import MfdfaConfig, _geometric_scales, analyze, average_spectra
from .modes import eigensignals, remove_modes_iterative
from .panel import PricePanel, ReturnPanel, _frozen, _kept_rows, coarsen, log_returns, standardize
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
BARS_PER_DAY = 78  # the default grid of a wide or long price file
MAX_Q_POINTS = 10_000
_MAX_SCALES = 10_000
_EXPORT_BLOCK = 1024
_READ_CHUNK = 1 << 20
# A line ends at LF, CRLF or a lone CR, as text read with newline="" splits it.
_LINE_END = re.compile(rb"\r\n|\r|\n")

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
    to the file in chunks of at most _READ_CHUNK bytes.
    """
    _check_names(r.assets, f"panel file {path}")
    x = r.returns
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
            while chunk := os.read(fd, _READ_CHUNK):
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
    ``range(n)`` need not count anything exactly: a text reader passes an
    estimate of its lines and maps each part to a byte range of its file.

    There are ``1 + panel._HELPERS`` parts (a child process has its own GIL),
    none shorter than _EXPORT_BLOCK, and one where ``os.fork`` is missing.
    A forked child reads the caller's data where it lies, with nothing to
    pickle; it calls only numpy, the float and text builtins and ``os`` reads,
    no lock the idle row-block threads could hold.  Every child is reaped
    before this returns, and killed first if it raises.
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


def _read_exactly(fd, arr):
    """Fill the C-ordered array `arr` from the pipe `fd`; False if it ends first."""
    view = memoryview(arr.reshape(-1).view(np.uint8))
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def _columns(pieces, *spans):
    """The columns lo..hi of the row arrays `pieces`, stacked in order, as one
    C-ordered (hi - lo, rows) array for each span (lo, hi); each piece leaves
    the list once it is copied."""
    n_rows = sum(len(p) for p in pieces)
    outs = [np.empty((hi - lo, n_rows)) for lo, hi in spans]
    at = 0
    pieces.reverse()
    while pieces:
        piece = pieces.pop()
        for out, (lo, hi) in zip(outs, spans):
            out[:, at:at + len(piece)] = piece[:, lo:hi].T
        at += len(piece)
    return outs


# ---------------------------------------------------------------------------
# Text files in byte ranges
# ---------------------------------------------------------------------------

def _reader(fh):
    """``read(pos, size)`` for the binary file `fh`, and the file's size.

    A regular file is read with ``os.pread``, so forked parts share its
    descriptor without sharing an offset.  Anything else (a FIFO, say), or a
    platform without ``os.pread``, has size None: ``read`` ignores ``pos`` and
    reads on, and the file is read in one part.
    """
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode) and hasattr(os, "pread"):
        fd = fh.fileno()
        return (lambda pos, size: os.pread(fd, size, pos)), info.st_size
    return (lambda pos, size: fh.read(size)), None


def _chunks(read, pos, end):
    """The bytes from `pos` to `end` (None: to the end of the file) in chunks of
    whole lines, about _READ_CHUNK bytes each: a chunk ends just after a line
    end, never between a CR and its LF, or at the end of the file."""
    tail = b""
    while end is None or pos < end:
        data = read(pos, _READ_CHUNK if end is None else min(_READ_CHUNK, end - pos))
        if not data:
            break
        pos += len(data)
        data = tail + data if tail else data
        cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, -1) + 1
        tail = data[cut:]
        if cut:
            yield data[:cut]
    if tail:
        yield tail


def _line_count(data):
    """The line ends in `data` (whole lines from :func:`_chunks`)."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _line_start(read, pos, size):
    """The offset just after the first LF at pos - 1 or later, or `size`: a line
    starts there.  Every part of a read finds its bounds by this one rule."""
    pos -= 1
    while pos < size:
        data = read(pos, min(1 << 16, size - pos))
        if not data:
            break
        k = data.find(b"\n")
        if k >= 0:
            return pos + k + 1
        pos += len(data)
    return size


def _chunk_lines(chunk):
    """The lines of a byte chunk of whole lines, without their line ends, read
    with errors="surrogateescape", and whether the chunk is all UTF-8; if not,
    :func:`_check_utf8` finds the line."""
    try:
        text, utf8 = chunk.decode(), True
    except UnicodeDecodeError:
        text, utf8 = chunk.decode("utf-8", "surrogateescape"), False
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines, utf8


class _Head:
    """The lines at the top of a text file, one at a time, as (line number,
    text read with errors="surrogateescape"), from its byte chunks.

    After a line, ``at`` is the byte offset of the next one and ``rest()`` the
    chunks of whole lines from there on.
    """

    def __init__(self, chunks):
        self._chunks = chunks
        self._chunk = b""
        self._pos = 0  # the offset of the next line in _chunk
        self._base = 0  # the file offset of _chunk
        self.lineno = 0

    def __iter__(self):
        return self

    def __next__(self):
        while self._pos == len(self._chunk):
            self._base += len(self._chunk)
            self._chunk, self._pos = next(self._chunks), 0
        end = _LINE_END.search(self._chunk, self._pos)
        start, self._pos = self._pos, end.end() if end else len(self._chunk)
        self.lineno += 1
        line = self._chunk[start:end.start() if end else None]
        return self.lineno, line.decode("utf-8", "surrogateescape")

    @property
    def at(self):
        return self._base + self._pos

    def rest(self):
        return itertools.chain([self._chunk[self._pos:]], self._chunks)

    def lines_to(self, size):
        """About how many lines lie between ``at`` and `size`, judged by the rest
        of the chunk read; at least 1."""
        sample = self._chunk[self._pos:]
        return max(1, (size - self.at) * _line_count(sample) // len(sample)) if sample else 1


def _text_parts(read, size, head, rows, n_cols):
    """The rows of the lines after `head`'s last, read in parts of the file's
    bytes by :func:`_in_parts`, as (k, n_cols) arrays in file order.

    ``rows(chunks, first)`` parses the lines of the byte chunks, the first of
    them line `first`, into (k, n_cols) arrays, k not known beforehand.  The
    parts are cut at LF line ends, in proportion to an estimate of the lines
    left; each part finds its own bounds and reads its own range.  A forked
    child passes `first` None: its error is dropped and its part redone by the
    caller, so it need not name a line.  It sends its row count, then its rows,
    through its pipe.  A part the caller redoes counts the line ends before it
    to number its lines.  A file with no size (not a regular file) is read on
    from `head`, in one part.
    """
    if size is None:
        return list(rows(head.rest(), head.lineno + 1))
    start, n = head.at, head.lines_to(size)
    pieces = []

    def cut(i):
        if i <= 0:
            return start
        if i >= n:
            return size
        return _line_start(read, start + (size - start) * i // n, size)

    def own(lo, hi):
        lo, hi = cut(lo), cut(hi)
        if lo == start:
            first = head.lineno + 1
        else:  # a part redone after its child failed
            first = 1 + sum(map(_line_count, _chunks(read, 0, lo)))
        pieces.extend(rows(_chunks(read, lo, hi), first))

    def emit(lo, hi):
        buf = bytearray(8)
        count = 0
        for part in rows(_chunks(read, cut(lo), cut(hi)), None):
            buf += memoryview(part.reshape(-1).view(np.uint8))
            count += len(part)
        buf[:8] = np.int64(count).tobytes()
        return buf

    def take(lo, hi, fd):
        count = np.empty(1, np.int64)
        if not _read_exactly(fd, count):
            return False
        part = np.empty((int(count[0]), n_cols))
        if not _read_exactly(fd, part):
            return False
        pieces.append(part)
        return True

    _in_parts(n, emit, take, own)
    return pieces


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


def _check_utf8(line, lineno, path):
    """A ValueError naming the file and line if `line`, read as UTF-8 with
    errors="surrogateescape", held a byte that is not UTF-8 text.  Every such
    byte reads as a lone surrogate, which no valid text holds; an ASCII line is
    passed at once."""
    if line.isascii():
        return
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"{path}: line {lineno}: byte 0x{byte:02x} at column {exc.start + 1} "
                         "is not UTF-8 text") from None


def _parse_panel_rows(lines, n_fields):
    """The value columns of panel data lines, one array row per line.

    numpy's parser rounds correctly, so every value written with repr() reads
    back bit-identical; the bar column is not parsed.
    """
    return np.loadtxt(lines, delimiter=",", usecols=range(1, n_fields),
                      comments=None, ndmin=2)


def _panel_rows(chunks, first, n_fields, path):
    """The values of the panel data lines in the byte chunks, one (k, n_fields - 1)
    array per chunk; the first line is line `first`.

    Each line gets the checks the header's lines get: UTF-8 text, blank and
    comment lines skipped, then the field count.  The first line that fails
    them ends the read: its error is raised once the lines before it are
    parsed, so an unparseable value on an earlier line is the error.  `first`
    is None in a forked child, which neither numbers lines nor looks for the
    bad one.
    """
    lineno = (first or 1) - 1
    for chunk in chunks:
        chunk_lines, utf8 = _chunk_lines(chunk)
        lines, linenos, stop = [], [], None
        try:
            for line in chunk_lines:
                lineno += 1
                if not utf8:
                    _check_utf8(line, lineno, path)
                if not line.strip() or line.startswith("#"):
                    continue
                if line.count(",") != n_fields - 1:
                    raise ValueError(
                        f"line {lineno}: expected {n_fields} fields, got {line.count(',') + 1}"
                    )
                lines.append(line)
                linenos.append(lineno)
        except ValueError as exc:
            stop = exc
        if lines:
            yield _panel_values(lines, linenos, n_fields, first is not None)
        if stop is not None:
            raise stop


def _panel_values(lines, linenos, n_fields, name_line):
    """:func:`_parse_panel_rows` of `lines`; if one is bad and `name_line`, the
    error names the first bad line's number."""
    try:
        return _parse_panel_rows(lines, n_fields)
    except ValueError:
        if not name_line:
            raise
        # Bisect for the first bad line with the same parser: a run of lines
        # that parses holds no bad line, so [lo, hi) keeps one.
        lo, hi = 0, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _parse_panel_rows(lines[lo:mid], n_fields)
                lo = mid
            except ValueError:
                hi = mid
        try:
            _parse_panel_rows(lines[lo:hi], n_fields)
        except ValueError:
            raise ValueError(f"line {linenos[lo]}: unparseable value in panel file") from None
        raise


def _plain(text):
    """`text`, or a ValueError if it holds '_' or inner non-ASCII, which numpy's parser rejects."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(text)
    return text


def _number(kind):
    """A flag's text as `kind` (int or float) under :func:`_plain`; the parser
    is named after `kind`, as argparse's error ("invalid int value") reads it."""
    def parse(text):
        return kind(_plain(text))
    parse.__name__ = kind.__name__
    return parse


def _items(text, sep, kind):
    """The `sep`-separated numbers of a list flag's text, each read by
    :func:`_number`; a blank item is a ValueError."""
    return list(map(_number(kind), text.split(sep)))


def _header_number(path, meta, key, default, kind):
    """A positive header value; an int must be whole, a float finite."""
    text = meta.get(key, default)
    try:
        value = kind(_plain(text))
        ok = value > 0 and (kind is int or math.isfinite(value))
    except ValueError:
        ok = False
    if not ok:
        what = "a positive integer" if kind is int else "a finite positive number"
        raise ValueError(f"{path}: header {key!r} must be {what}, got {text!r}")
    return value


def _read_panel_csv(path) -> ReturnPanel:
    """A panel CSV file as a ReturnPanel.

    The caller reads only the lines down to the column header; the data lines
    after it are read in byte-range parts by :func:`_text_parts`, each part in
    chunks of whole lines, so no process holds the file's lines at once.  The
    first bad line's error, header and metadata first, is the one raised.
    """
    meta = {}
    header = None
    stop = None  # the first bad line's error, raised after the metadata checks
    with open(path, "rb") as fh:
        read, size = _reader(fh)
        head = _Head(_chunks(read, 0, None))
        try:
            for lineno, line in head:
                _check_utf8(line, lineno, path)
                if not line.strip():
                    continue
                if line.startswith("#"):
                    # The metadata is the comment block above the header.
                    body = line[1:].strip()
                    if ":" in body:
                        key, _, val = body.partition(":")
                        meta[key.strip()] = val.strip()
                    elif not meta:
                        meta["magic"] = body
                    continue
                header = line.split(",")
                if header[0] != "bar" or len(header) < 2:
                    raise ValueError(f"line {lineno}: panel header must be 'bar,<assets...>'")
                _check_names(header[1:], f"line {lineno}")
                break
        except ValueError as exc:
            stop = exc
        if meta.get("magic") != PANEL_MAGIC:
            raise ValueError(f"not a {PANEL_MAGIC} file: {path}")
        standardized = meta.get("standardized", "false")
        if standardized not in ("true", "false"):
            raise ValueError(
                f"{path}: header 'standardized' must be true or false, got {standardized!r}"
            )
        bars_per_day = _header_number(path, meta, "bars_per_day", "1", int)
        dt_seconds = _header_number(path, meta, "dt_seconds", "60.0", float)
        if stop is not None:
            raise stop
        pieces = [] if header is None else _text_parts(
            read, size, head, lambda chunks, first: _panel_rows(chunks, first, len(header), path),
            len(header) - 1)
    if not sum(map(len, pieces)):
        raise ValueError(f"panel file {path} has no data rows")
    values, = _columns(pieces, (0, len(header) - 1))
    return ReturnPanel(
        assets=header[1:],
        returns=_frozen(values),
        standardized=standardized == "true",
        bars_per_day=bars_per_day,
        dt_seconds=dt_seconds,
    )


def _timestamp(token, lineno):
    """A finite timestamp parsed from `token`, or a ValueError naming the line."""
    try:
        ts = float(_plain(token))
    except ValueError:
        raise ValueError(f"line {lineno}: unparseable timestamp {token!r}") from None
    if not math.isfinite(ts):
        raise ValueError(f"line {lineno}: non-finite timestamp {token!r}")
    return ts


def _csv_records(fh, path):
    """(line number, fields) of each record of a CSV file with a non-blank
    field, header included.  A file with no such record is a ValueError naming
    the file, and a malformed record or a line that is not UTF-8 text (`fh`
    reads with errors="surrogateescape") one naming the file and its first line."""

    def lines():
        for lineno, line in enumerate(fh, start=1):
            _check_utf8(line, lineno, path)
            yield line

    reader = csv.reader(lines())
    empty = True
    while True:
        lineno = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            if empty:
                raise ValueError(f"empty file: {path}") from None
            return
        except csv.Error as exc:
            raise ValueError(f"{path}: line {lineno}: malformed CSV record: {exc}") from None
        if any(f.strip() for f in row):
            empty = False
            yield lineno, row


def _read_wide_csv(path, bars_per_day) -> PricePanel:
    """A wide price CSV file as a PricePanel.

    A regular file that holds no '"' is read like a panel file: the caller
    reads down to the column header, and the data lines are read in byte-range
    parts by :func:`_text_parts`, each line split by :func:`_wide_record`
    (what the csv module makes of it).  A quoted field may hold a line end, so
    a file with a '"', and anything not a regular file, is read as CSV records
    in one pass, and its prices are converted in the calling process.
    """
    with open(path, "rb") as fh:
        read, size = _reader(fh)
        if size is None or _holds(read, size, b'"'):
            with io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape",
                                  newline="") as text:
                assets, pieces, stop = _wide_records(text, path)
        else:
            head = _Head(_chunks(read, 0, None))
            for lineno, line in head:
                _check_utf8(line, lineno, path)
                _check_field_sizes(line, lineno, path)
                if _wide_record(line)[0]:
                    break
            else:
                raise ValueError(f"empty file: {path}")
            assets = _wide_assets(line.split(","), lineno)
            pieces = _text_parts(
                read, size, head, lambda chunks, first: _wide_rows(chunks, first, assets, path),
                1 + len(assets))
            stop = None
    if stop is not None:
        raise stop
    if not sum(map(len, pieces)):
        raise ValueError(f"no data rows in {path}")
    timestamps, prices = _columns(pieces, (0, 1), (1, 1 + len(assets)))
    return _price_panel(prices, assets, _frozen(timestamps)[0], bars_per_day)


def _wide_assets(header, lineno):
    """The asset names of a wide CSV header record (on line `lineno`)."""
    if len(header) < 2:
        raise ValueError("wide CSV needs a time column plus at least one asset")
    assets = [a.strip() for a in header[1:]]
    _check_names(assets, f"line {lineno}")
    return assets


def _wide_records(fh, path):
    """(assets, row pieces, the first bad line's error or None) of a wide CSV
    text file read as CSV records: the header, then each data record checked
    in one pass, and the prices of the records before any bad one converted in
    one :func:`_price_rows` call (timestamp first)."""
    reader = _csv_records(fh, path)
    lineno, header = next(reader)
    assets = _wide_assets(header, lineno)
    # Each row's price cells are kept as one comma-joined string, not one
    # object per cell; a row with a comma inside a cell holds no price.
    timestamps, rows, linenos = [], [], []
    stop = None  # the first bad line's error, raised after the prices before it
    try:
        for lineno, row in reader:
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            timestamps.append(_timestamp(row[0], lineno))
            cells = ",".join(row[1:])
            if cells.count(",") != len(row) - 2:
                for a, c in zip(assets, row[1:]):
                    _price(c, a, lineno)  # raises at the first bad cell
            rows.append(cells)
            linenos.append(lineno)
    except ValueError as exc:
        stop = exc
    # A record that failed after its timestamp parsed left one timestamp over.
    return assets, [_price_rows(timestamps[:len(rows)], rows, linenos, assets)], stop


def _holds(read, size, byte):
    """Whether the `size` bytes of a file hold `byte`."""
    pos = 0
    while pos < size:
        data = read(pos, _READ_CHUNK)
        if not data:
            break
        if byte in data:
            return True
        pos += len(data)
    return False


def _wide_record(line):
    """(field count, first field, the text after its comma) of a wide CSV line
    holding no '"'; the count is 0 if no field holds more than whitespace.

    For such a line csv.reader's fields are ``[first, *rest.split(",")]``
    (``[first]`` if it holds no comma), and the csv reader skips a record
    with no such field.
    """
    first, _, rest = line.partition(",")
    if not first.strip() and not rest.replace(",", "").strip():
        return 0, first, rest
    return line.count(",") + 1, first, rest


def _check_field_sizes(line, lineno, path):
    """The csv reader's error for a line holding a field over
    ``csv.field_size_limit()`` characters, for a line read without it."""
    limit = csv.field_size_limit()
    if len(line) > limit and max(map(len, line.split(","))) > limit:
        raise ValueError(f"{path}: line {lineno}: malformed CSV record: "
                         f"field larger than field limit ({limit})")


def _wide_rows(chunks, first, assets, path):
    """The timestamp and prices of the wide CSV data lines in the byte chunks,
    one (k, 1 + N) array per chunk, timestamp first; the first line is line
    `first` (None in a forked child).

    The lines hold no '"'.  Each gets the checks of the CSV record pass:
    UTF-8 text, the csv reader's field size limit, records with no non-blank
    field skipped, the field count and the timestamp.  The first line that
    fails them ends the read, as in :func:`_panel_rows`.
    """
    n_fields = 1 + len(assets)
    lineno = (first or 1) - 1
    for chunk in chunks:
        lines, utf8 = _chunk_lines(chunk)
        timestamps, rows, linenos, stop = [], [], [], None
        try:
            for line in lines:
                lineno += 1
                if not utf8:
                    _check_utf8(line, lineno, path)
                _check_field_sizes(line, lineno, path)
                count, stamp, cells = _wide_record(line)
                if not count:
                    continue
                if count != n_fields:
                    raise ValueError(f"line {lineno}: expected {n_fields} fields, got {count}")
                timestamps.append(_timestamp(stamp, lineno))
                rows.append(cells)
                linenos.append(lineno)
        except ValueError as exc:
            stop = exc
        if rows:
            yield _price_rows(timestamps, rows, linenos, assets)
        if stop is not None:
            raise stop


def _price_rows(timestamps, rows, linenos, assets):
    """Wide CSV data rows as float64 rows: the timestamp, then the prices of the
    comma-joined price cells, NaN for a blank cell."""
    out = np.empty((len(rows), 1 + len(assets)))
    out[:, 0] = timestamps
    for k, row in enumerate(rows):
        try:  # float() strips what strip() would
            out[k, 1:] = list(map(float, _plain(row).split(",")))
        except ValueError:  # a blank cell, or a bad one: one cell at a time
            out[k, 1:] = [_price(c, a, linenos[k]) for a, c in zip(assets, row.split(","))]
    return out


def _price(cell, asset, lineno):
    """One price cell: NaN if blank, else a float or a ValueError naming the line."""
    cell = cell.strip()
    if not cell:
        return np.nan
    try:
        return float(_plain(cell))
    except ValueError:
        raise ValueError(f"line {lineno}: unparseable price {cell!r} for {asset}") from None


def _read_long_csv(path, bars_per_day) -> PricePanel:
    """A long price CSV file as a PricePanel.  Each record goes into four typed
    columns (timestamp, asset row, price, line), not into an object of its own.
    One stable sort of the (asset, bar) cells finds the first duplicate: of the
    second and later occurrences of a cell, the one on the earliest line."""
    stamps, rows, prices, lines = array("d"), array("q"), array("d"), array("q")
    asset_index = {}  # asset name -> row, in order of first appearance
    stop = None  # the first bad line's error, raised after the records before it
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = _csv_records(fh, path)
        next(reader)  # the header
        try:
            for lineno, row in reader:
                if len(row) != 3:
                    raise ValueError(f"line {lineno}: expected timestamp,asset,price")
                ts, asset = _timestamp(row[0], lineno), row[1].strip()
                if asset not in asset_index:
                    _check_names([asset], f"line {lineno}")
                    asset_index[asset] = len(asset_index)
                prices.append(_price(row[2], asset, lineno))
                stamps.append(ts)
                rows.append(asset_index[asset])
                lines.append(lineno)
        except ValueError as exc:
            stop = exc

    grid, bar = np.unique(np.frombuffer(stamps), return_inverse=True)
    asset_row = np.frombuffer(rows, dtype=np.int64)
    cells = asset_row * len(grid) + bar
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    repeats = order[1:][cells[1:] == cells[:-1]]
    if repeats.size:
        k = repeats.min()
        raise ValueError(f"line {lines[k]}: duplicate (timestamp, asset) = "
                         f"({stamps[k]}, {list(asset_index)[rows[k]]})")
    if stop is not None:
        raise stop
    if not stamps:
        raise ValueError(f"no data rows in {path}")
    out = np.full((len(asset_index), len(grid)), np.nan)
    out[asset_row, bar] = np.frombuffer(prices)
    return _price_panel(out, list(asset_index), _frozen(grid), bars_per_day)


def _price_panel(prices, assets, timestamps, bars_per_day):
    """The PricePanel of a reader's (N, T+1) prices, NaN where a bar has none.

    A gap takes the last price before it (a warning gives the count); an
    asset missing more than 5% of its bars is dropped with a warning.
    `prices` is the reader's own C-ordered array: it is filled in place, and
    the panel takes its kept rows without a copy.
    """
    n_bars = prices.shape[1]
    keep = np.ones(len(assets), dtype=bool)
    for i, name in enumerate(assets):
        missing = int(np.isnan(prices[i]).sum())
        if missing > MISSING_DROP_FRACTION * n_bars:
            warnings.warn(f"asset {name} missing {missing}/{n_bars} bars (> 5%); dropped")
            keep[i] = False
        elif missing:
            if np.isnan(prices[i, 0]):
                raise ValueError(f"asset {name} has no price at the first bar; cannot forward-fill")
            # Each bar takes the price at the last bar up to it that has one.
            last = np.maximum.accumulate(np.where(np.isnan(prices[i]), 0, np.arange(n_bars)))
            prices[i] = prices[i, last]
            warnings.warn(f"asset {name}: forward-filled {missing} missing bar(s)")
    if not keep.any():
        raise ValueError("all assets dropped during missing-bar handling")
    return PricePanel(
        assets=[a for a, k in zip(assets, keep) if k],
        timestamps=timestamps,
        prices=_kept_rows(prices, keep),
        bars_per_day=bars_per_day,
    )


def ingest(path, format: str, bars_per_day: int = BARS_PER_DAY):
    """Read one input file: 'panel' -> ReturnPanel, 'wide'/'long' -> PricePanel.
    An OSError while opening or reading it is a ValueError naming the file."""
    if not os.path.exists(path):
        raise ValueError(f"input file not found: {path}")
    if os.path.isdir(path):
        raise ValueError(f"--input {path} is a directory, not a file")
    try:
        if format == "panel":
            return _read_panel_csv(path)
        if format == "wide":
            return _read_wide_csv(path, bars_per_day)
        if format == "long":
            return _read_long_csv(path, bars_per_day)
    except OSError as e:
        raise ValueError(f"input file {path}: cannot read it ({e.strerror or e})") from None
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
    "bars_per_day": _Flag(int, BARS_PER_DAY, "grid points per trading day", ge=1, lt=2**63),
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
    "detrend_order": _Flag(int, 2, "polynomial detrending order", ("mfdfa",), ge=1),
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
    """The run's config; every check that needs only the config is made here,
    before the panel is read or made.  A run's config.json replays it: its
    `subcommand` is taken from the command line and its `config_hash` is
    recomputed."""
    cfg = dict(DEFAULTS)
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
        unknown = set(file_cfg) - set(DEFAULTS) - {"subcommand", "config_hash"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({k: _check_file_value(args.config, k, v)
                    for k, v in file_cfg.items() if k in DEFAULTS})
    cfg["subcommand"] = args.command
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["seed"] is None:
        env = os.environ.get("XCORR_SEED", "0")
        try:
            cfg["seed"] = int(_plain(env))
        except ValueError:
            raise ValueError(f"XCORR_SEED must be an integer, got {env!r}") from None
        _check_bounds("seed", cfg["seed"], "XCORR_SEED")
    for key in _FLAGS:
        _check_bounds(key, cfg[key], _flag_name(key))
    if args.command == "mfdfa":
        _mfdfa_config(cfg)
    if args.command == "report":
        _parse_factors(cfg["factors"])
    # A key the panel source leaves unused must hold its default, so that
    # config.json and its hash record only what the run used.
    unused = ()
    if cfg["preset"]:
        unused, why = ("input", "format", "bars_per_day"), "the preset makes the panel"
    elif cfg["format"] == "panel":
        unused, why = ("bars_per_day",), "the panel file header sets the bars per day"
    for key in unused:
        if cfg[key] != DEFAULTS[key]:
            raise ValueError(f"{_flag_name(key)} {cfg[key]!r} would be ignored: {why}")
    if args.command == "synth" and not cfg["preset"]:
        raise ValueError(f"--preset is required; choose one of {PRESET_NAMES}")
    if args.command == "surrogate" and not cfg["surrogate_kind"]:
        raise ValueError(f"--surrogate-kind is required; choose one of {KINDS}")
    if not (cfg["preset"] or cfg["input"]):
        raise ValueError("provide --input or --preset")
    return cfg


def config_hash(cfg: dict) -> str:
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    payload = json.dumps(hashed, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _write_artifact(path, artifact, cfg_hash):
    """Write one artifact with the config hash in it: a dict as sorted JSON, a
    ReturnPanel as a panel CSV, a (tag, column names, xs, ys) tuple as plot text."""
    if isinstance(artifact, dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({**artifact, "config_hash": cfg_hash}, sort_keys=True, indent=2)
                     + "\n")
    elif isinstance(artifact, ReturnPanel):
        export_panel(artifact, path, extra_comments=[f"config_hash: {cfg_hash}"])
    else:
        _write_plot(path, artifact, cfg_hash)


def _write_plot(path, plot, cfg_hash):
    tag, col_names, xs, ys = plot
    with open(path, "w") as fh:
        fh.write(f"# {tag}\n")
        fh.write(f"# config_hash: {cfg_hash}\n")
        fh.write(f"# {col_names[0]} {col_names[1]}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r} {float(y)!r}\n")


def _write_set(out, artifacts, cfg_hash):
    """Write a run's artifacts ({file name: artifact}) into the directory `out`,
    made if missing, under its lock (see :func:`_flock`), which also lets the
    ``.xcorr-partial-*`` directories of a killed run be removed.  The artifacts
    go into a fresh partial directory, then move into `out` in name order: a
    failure before the first move leaves `out` as it was, less every directory
    this call made.  An OSError is a ValueError naming `out` and the file."""
    made, d = [], out  # the directories makedirs makes, deepest first
    while d and not os.path.isdir(d):
        made.append(d)
        d = os.path.dirname(d)
    lock = os.path.join(out, ".xcorr-lock")
    name, fd, partial, moved = None, None, None, False
    try:
        os.makedirs(out, exist_ok=True)
        name = ".xcorr-lock"
        fd = _flock(lock, ValueError(f"output directory {out} is locked by another run "
                                     f"(remove {lock} if stale)"))
        for stale in os.listdir(out):
            if stale.startswith(".xcorr-partial-"):
                shutil.rmtree(os.path.join(out, stale), ignore_errors=True)
        name = "a .xcorr-partial-* directory"
        partial = tempfile.mkdtemp(prefix=".xcorr-partial-", dir=out)
        for name, artifact in artifacts.items():
            _write_artifact(os.path.join(partial, name), artifact, cfg_hash)
        for name in sorted(artifacts):
            os.replace(os.path.join(partial, name), os.path.join(out, name))
            moved = True
    except OSError as e:
        what = f"write {name}" if name else "create the output directory"
        raise ValueError(f"--out {out}: cannot {what} ({e.strerror or e})") from None
    finally:
        if partial is not None:
            shutil.rmtree(partial, ignore_errors=True)
        if fd is not None:
            with contextlib.suppress(OSError):
                os.remove(lock)
            os.close(fd)
        for d in [] if moved else made:
            with contextlib.suppress(OSError):
                os.rmdir(d)


def _flock(lock, locked):
    """An open descriptor of the lock file `lock`, held by this process; raise
    `locked` if another run holds it.  The lock is an ``fcntl.flock``, which
    the kernel drops when its holder dies, so the file a killed run left
    behind is taken over.  A holder removes the file before it lets go, so a
    lock taken on a file no longer at `lock` is tried again.  Where ``fcntl``
    is missing, the file is created exclusively instead."""
    if fcntl is None:
        try:
            return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise locked from None
    while True:
        fd = os.open(lock, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with contextlib.suppress(FileNotFoundError):
                if os.path.samestat(os.fstat(fd), os.stat(lock)):
                    return fd
        except BlockingIOError:
            os.close(fd)
            raise locked from None
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)


def _load_panel(cfg) -> ReturnPanel:
    if cfg["preset"]:
        return generate(preset(cfg["preset"], seed=cfg["seed"]))
    # Rebinding the one name frees the prices before standardize runs.
    r = ingest(cfg["input"], cfg["format"], bars_per_day=cfg["bars_per_day"])
    if isinstance(r, PricePanel):
        r = log_returns(r)
    return standardize(r)


def _parse_q_grid(text) -> np.ndarray:
    try:
        lo, hi, step = _items(text, ":", float)
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
        factors = _items(text, ",", int)
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
        numbers = _items(text, ":" if geometric else ",", int)
    except ValueError:
        numbers = []
    if not numbers or (geometric and len(numbers) != 3) or not all(0 < x < 2**62 for x in numbers):
        raise ValueError(f"--scales must be 'min:max:count' or a comma list, with positive "
                         f"integers below 2**62; got {text!r}")
    if not geometric:
        return np.array(sorted(set(numbers)))
    lo, hi, count = numbers
    if lo >= hi:
        raise ValueError(f"--scales 'min:max:count' needs min < max, got {text!r}")
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
    b = mp_bounds(c.q)
    return c, s, b, overlap_fraction(s, b)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _rank_plot(tag, s):
    """The plot of the eigenvalues of the spectrum `s` against their rank."""
    return tag, ("rank", "eigenvalue"), np.arange(1, s.n_series + 1), s.eigenvalues


def _run_spectrum(cfg):
    r = _load_panel(cfg)
    _, s, b, gamma = _spectrum_payload(r)
    payload = s.to_dict()
    payload.update(
        {
            "n_series": r.n_assets,
            "t_length": r.t_length,
            "mp": b.to_dict(),
            "overlap_fraction": gamma,
        }
    )
    return {"spectrum.json": payload, "fig2a-analogue.txt": _rank_plot("fig2a-analogue", s)}


def _run_elements(cfg):
    r = _load_panel(cfg)
    if cfg["q_target"] is not None:
        dist = windowed_element_distribution(r, float(cfg["q_target"]), int(cfg["bins"]))
    else:
        c = correlation_matrix(r)
        dist = element_distribution(c, int(cfg["bins"]))
    centers = 0.5 * (dist.bin_edges[:-1] + dist.bin_edges[1:])
    return {
        "elements.json": dist.to_dict(),
        "fig1-analogue.txt": ("fig1-analogue", ("element", "density"), centers, dist.densities),
    }


def _run_remove(cfg):
    res = remove_modes_iterative(_load_panel(cfg), int(cfg["remove_count"]),
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
            "original_eigenvalues": s0.eigenvalues.tolist(),
            "original_overlap_fraction": overlap_fraction(s0, b),
            "mp": b.to_dict(),
            "passes_spectra": passes,
        }
    )
    return {
        "remove.json": payload,
        "residual_panel.csv": res.panel,
        "fig2c-analogue.txt": _rank_plot("fig2c-analogue", s_final),
    }


def _run_surrogate(cfg):
    spec = SurrogateSpec(kind=cfg["surrogate_kind"], seed=cfg["seed"])
    r = _load_panel(cfg)
    _, s0, b, _ = _spectrum_payload(r)
    sur = apply_surrogate(r, spec)
    del r  # so standardize does not run beside the original panel
    sur = standardize(sur)
    _, s1, _, gamma1 = _spectrum_payload(sur)
    tag = _FIG_TAG[spec.kind]
    return {
        "surrogate.json": {
            "surrogate": spec.to_dict(),
            "original_eigenvalues": s0.eigenvalues.tolist(),
            "surrogate_eigenvalues": s1.eigenvalues.tolist(),
            "lambda1_ratio": float(s1.eigenvalues[0] / s0.eigenvalues[0]),
            "mp": b.to_dict(),
            "surrogate_overlap_fraction": gamma1,
            "surrogate_support_width": float(s1.eigenvalues[0] - s1.eigenvalues[-1]),
        },
        "surrogate_panel.csv": sur,
        f"{tag}.txt": _rank_plot(tag, s1),
    }


def _run_mfdfa(cfg):
    r = _load_panel(cfg)
    n_modes = int(cfg["modes"])
    if n_modes > r.n_assets:
        raise ValueError(f"--modes {n_modes} exceeds the number of assets N={r.n_assets}")
    _, s, _, _ = _spectrum_payload(r)
    mf_cfg = _mfdfa_config(cfg)
    per_mode, spectra = [], []
    for z in eigensignals(r, s, range(1, n_modes + 1)):
        surface, spec = analyze(z.series, mf_cfg)
        spectra.append(spec)
        entry = spec.to_dict()
        entry["mode"] = z.index
        entry["eigenvalue"] = z.eigenvalue
        entry["surface"] = surface.to_dict()
        per_mode.append(entry)
    avg = average_spectra(spectra)
    first = spectra[0]
    return {
        "mfdfa.json": {"per_mode": per_mode, "average": avg.to_dict()},
        "fig6-analogue.txt": ("fig6-analogue", ("q", "h"), first.q, first.h),
        "fig7-analogue.txt": ("fig7-analogue", ("alpha", "f"), avg.alpha, avg.f),
    }


def _run_synth(cfg):
    model = preset(cfg["preset"], seed=cfg["seed"])
    return {"panel.csv": generate(model), "synth.json": {"model": model.to_dict()}}


def _run_report(cfg):
    r = _load_panel(cfg)
    factors = _parse_factors(cfg["factors"])
    if any(r.bars_per_day % f for f in factors):
        # A factor above T leaves no coarsened panel, so the list stops at T.
        limit = min(max(factors), r.t_length)
        divisors = [d for d in range(1, limit + 1) if r.bars_per_day % d == 0]
        raise ValueError(
            f"--factors {cfg['factors']!r} must each divide the {r.bars_per_day} bars per day; "
            f"the divisors up to {limit} are {', '.join(map(str, divisors))}"
        )
    c, s, b, gamma = _spectrum_payload(r)
    dist = element_distribution(c, int(cfg["bins"]))
    lam_vs_factor = []
    for factor in factors:
        sc = s if factor == 1 else _spectrum_payload(standardize(coarsen(r, factor)))[1]
        lam_vs_factor.append([factor, float(sc.eigenvalues[0])])
    return {
        "report.json": {
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
        "lambda1-vs-coarsening.txt": ("lambda1-vs-coarsening-analogue", ("factor", "lambda1"),
                                      [f for f, _ in lam_vs_factor],
                                      [l for _, l in lam_vs_factor]),
    }


# Each subcommand's runner and its --help line.  A runner returns its artifacts
# as {file name: artifact} (see _write_artifact), or raises.
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
    """Execute one subcommand with an effective config dict; returns exit code 0.
    The runner computes every artifact before :func:`_write_set` touches the
    file system, so a run that fails leaves no ``--out``."""
    if subcommand not in _COMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    artifacts = _COMMANDS[subcommand][0](cfg)
    artifacts["config.json"] = {k: v for k, v in cfg.items() if k != "out"}
    _write_set(cfg["out"], artifacts, config_hash(cfg))
    return 0


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
                kwargs = {"type": _number(f.type) if f.type in (int, float) else f.type,
                          "choices": f.choices}
            shown = f.default is not None and f.type is not bool
            p.add_argument(_flag_name(key), dest=key, **kwargs,
                           help=f"{f.help} (default {f.default})" if shown else f.help)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        return run(args.command, cfg)
    except Exception as e:  # analysis errors -> machine-readable JSON on stderr
        sys.stderr.write(json.dumps({"error": str(e), "type": type(e).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
