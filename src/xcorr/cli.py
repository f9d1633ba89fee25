"""Command-line front end and file I/O.

Subcommands: spectrum, elements, remove, surrogate, mfdfa, synth, report.
Artifacts are deterministic given the effective config: JSON for structured
results, two-column text for plot data, CSV for panels.  Every artifact embeds
a hash of the effective config (output path excluded), and the effective
config itself is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np

from .mfdfa import MfdfaConfig, analyze, average_spectra
from .modes import eigensignals, remove_modes_iterative
from .panel import PricePanel, ReturnPanel, coarsen, log_returns, standardize
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
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# {PANEL_MAGIC}\n")
        fh.write(f"# standardized: {'true' if r.standardized else 'false'}\n")
        fh.write(f"# bars_per_day: {r.bars_per_day}\n")
        fh.write(f"# dt_seconds: {float(r.dt_seconds)!r}\n")
        for line in extra_comments:
            fh.write(f"# {line}\n")
        fh.write("bar," + ",".join(str(a) for a in r.assets) + "\n")
        cols = r.returns.T
        for j in range(r.t_length):
            fh.write(str(j) + "," + ",".join(repr(float(x)) for x in cols[j]) + "\n")


def _check_unique(assets, where):
    seen = set()
    for a in assets:
        if a in seen:
            raise ValueError(f"{where}: duplicate asset name {a!r} in header")
        seen.add(a)


def _read_panel_csv(path) -> ReturnPanel:
    meta = {}
    header = None
    data = []
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
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
            fields = line.split(",")
            if header is None:
                header = fields
                if header[0] != "bar" or len(header) < 2:
                    raise ValueError(f"line {lineno}: panel header must be 'bar,<assets...>'")
                _check_unique(header[1:], f"line {lineno}")
                continue
            if len(fields) != len(header):
                raise ValueError(
                    f"line {lineno}: expected {len(header)} fields, got {len(fields)}"
                )
            try:
                data.append([float(x) for x in fields[1:]])
            except ValueError:
                raise ValueError(f"line {lineno}: unparseable value in panel file") from None
    if meta.get("magic") != PANEL_MAGIC:
        raise ValueError(f"not a {PANEL_MAGIC} file: {path}")
    if header is None or not data:
        raise ValueError(f"panel file {path} has no data rows")
    returns = np.array(data, dtype=float).T
    return ReturnPanel(
        assets=header[1:],
        returns=returns,
        standardized=meta.get("standardized", "false") == "true",
        bars_per_day=int(meta.get("bars_per_day", "1")),
        dt_seconds=float(meta.get("dt_seconds", "60.0")),
    )


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
        _check_unique(assets, "line 1")
        timestamps, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                timestamps.append(float(row[0]))
            except ValueError:
                raise ValueError(f"line {lineno}: unparseable timestamp {row[0]!r}") from None
            vals = []
            for a, f in zip(assets, row[1:]):
                f = f.strip()
                if not f:
                    vals.append(np.nan)
                    continue
                try:
                    vals.append(float(f))
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: unparseable price {f!r} for {a}"
                    ) from None
            rows.append(vals)
    prices = np.array(rows, dtype=float).T
    prices, assets = _fill_missing(prices, assets)
    return PricePanel(
        assets=assets,
        timestamps=np.array(timestamps, dtype=float),
        prices=prices,
        bars_per_day=bars_per_day,
    )


def _read_long_csv(path, bars_per_day) -> PricePanel:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected timestamp,asset,price")
            try:
                ts = float(row[0])
                price = float(row[2])
            except ValueError:
                raise ValueError(f"line {lineno}: unparseable row {row!r}") from None
            records.append((ts, row[1].strip(), price, lineno))
    if not records:
        raise ValueError(f"no data rows in {path}")

    grid = sorted({ts for ts, _, _, _ in records})
    grid_index = {ts: i for i, ts in enumerate(grid)}
    assets = []
    for _, asset, _, _ in records:
        if asset not in assets:
            assets.append(asset)
    asset_index = {a: i for i, a in enumerate(assets)}

    prices = np.full((len(assets), len(grid)), np.nan)
    for ts, asset, price, lineno in records:
        i, j = asset_index[asset], grid_index[ts]
        if not np.isnan(prices[i, j]):
            raise ValueError(f"line {lineno}: duplicate (timestamp, asset) = ({ts}, {asset})")
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
        row = prices[i]
        for j in range(1, n_bars):
            if np.isnan(row[j]):
                row[j] = row[j - 1]
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

DEFAULTS = {
    "input": None,
    "format": "panel",
    "bars_per_day": 78,
    "preset": None,
    "seed": None,
    "q_target": None,
    "bins": 50,
    "remove_count": 1,
    "from_original": False,
    "surrogate_kind": None,
    "modes": 4,
    "q_grid": "-4:4:0.2",
    "detrend_order": 2,
    "scales": None,
    "factors": "1,2,5,10",
    "out": "xcorr_out",
}

# The type the flag of each key whose default is None parses to; every other
# flag parses to the type of its default.
_NULLABLE_TYPES = {
    "input": str,
    "preset": str,
    "seed": int,
    "q_target": float,
    "surrogate_kind": str,
    "scales": str,
}


def _check_file_value(path, key, val):
    """A config-file value, checked against the type its flag parses to."""
    nullable = DEFAULTS[key] is None
    want = _NULLABLE_TYPES[key] if nullable else type(DEFAULTS[key])
    if val is None and nullable:
        return val
    if want is float and type(val) is int:
        return float(val)
    if type(val) is not want:
        raise ValueError(
            f"config file {path}: {key!r} must be {want.__name__}"
            f"{' or null' if nullable else ''}, got {val!r}"
        )
    return val


def _effective_config(args) -> dict:
    cfg = dict(DEFAULTS)
    cfg["subcommand"] = args.command
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
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
        else:
            cfg["seed"] = 0
    for key, flag in (("remove_count", "--remove-count"), ("modes", "--modes"),
                      ("bars_per_day", "--bars-per-day")):
        if cfg[key] < 1:
            raise ValueError(f"{flag} must be at least 1, got {cfg[key]!r}")
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


class _OutputDir:
    """Create the output directory and hold a lock file for the run."""

    def __init__(self, path):
        self.path = path
        self.lock = os.path.join(path, ".xcorr-lock")

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ValueError(
                f"output directory {self.path} is locked by another run "
                f"(remove {self.lock} if stale)"
            ) from None
        os.close(fd)
        return self.path

    def __exit__(self, *exc):
        try:
            os.remove(self.lock)
        except OSError:
            pass
        return False


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
    if ":" in text:
        try:
            lo, hi, count = text.split(":")
            grid = np.unique(
                np.rint(np.geomspace(int(lo), int(hi), int(count))).astype(int)
            )
        except ValueError:
            raise ValueError(f"--scales must be 'min:max:count' or a comma list, got {text!r}") from None
        return grid
    try:
        return np.array(sorted({int(x) for x in text.split(",")}), dtype=int)
    except ValueError:
        raise ValueError(f"--scales must be 'min:max:count' or a comma list, got {text!r}") from None


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
    _write_json(
        out,
        "spectrum.json",
        {
            "config_hash": h,
            "n_series": r.n_assets,
            "t_length": r.t_length,
            "source_q": s.source_q,
            "eigenvalues": s.eigenvalues.tolist(),
            "eigenvectors_row_major": s.eigenvectors.tolist(),
            "mp": b.to_dict(),
            "overlap_fraction": gamma,
        },
    )
    ranks = np.arange(1, s.n_series + 1)
    _write_plot(out, "fig2a-analogue.txt", "fig2a-analogue", h,
                ("rank", "eigenvalue"), ranks, s.eigenvalues)
    return 0


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
    return 0


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
    return 0


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
    return 0


def _run_mfdfa(cfg, out, h):
    r = _load_panel(cfg)
    _, s, _, _ = _spectrum_payload(r)
    n_modes = min(int(cfg["modes"]), s.n_series)
    mf_cfg = MfdfaConfig(
        q_grid=_parse_q_grid(cfg["q_grid"]),
        detrend_order=int(cfg["detrend_order"]),
        scale_grid=_parse_scales(cfg["scales"]),
    )
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
    return 0


def _run_synth(cfg, out, h):
    if not cfg["preset"]:
        raise ValueError(f"--preset is required; choose one of {PRESET_NAMES}")
    model = preset(cfg["preset"], seed=cfg["seed"])
    r = generate(model)
    export_panel(r, os.path.join(out, "panel.csv"),
                 extra_comments=[f"config_hash: {h}"])
    _write_json(out, "synth.json", {"config_hash": h, "model": model.to_dict()})
    return 0


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
    return 0


_RUNNERS = {
    "spectrum": _run_spectrum,
    "elements": _run_elements,
    "remove": _run_remove,
    "surrogate": _run_surrogate,
    "mfdfa": _run_mfdfa,
    "synth": _run_synth,
    "report": _run_report,
}


def run(subcommand: str, cfg: dict) -> int:
    """Execute one subcommand with an effective config dict; returns exit code."""
    if subcommand not in _RUNNERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    h = config_hash(cfg)
    with _OutputDir(cfg["out"]) as out:
        # Artifacts go to a partial directory first and move into place only
        # once the runner has succeeded, so a failed run leaves no partial set.
        partial = tempfile.mkdtemp(prefix=".xcorr-partial-", dir=out)
        try:
            echoed = {k: v for k, v in cfg.items() if k != "out"}
            echoed["config_hash"] = h
            _write_json(partial, "config.json", echoed)
            code = _RUNNERS[subcommand](cfg, partial, h)
            if code == 0:
                for name in sorted(os.listdir(partial)):
                    os.replace(os.path.join(partial, name), os.path.join(out, name))
            return code
        finally:
            shutil.rmtree(partial, ignore_errors=True)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="xcorr",
        description="Spectral and multifractal analysis of cross-correlations "
        "in multivariate return series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", help="input file path")
        p.add_argument("--format", choices=["long", "wide", "panel"],
                       help="input file format (default panel)")
        p.add_argument("--bars-per-day", dest="bars_per_day", type=int,
                       help="grid points per trading day (default 78)")
        p.add_argument("--preset", choices=PRESET_NAMES,
                       help="generate input from a synthetic-market preset")
        p.add_argument("--seed", type=int,
                       help="random seed (falls back to env XCORR_SEED, then 0)")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default xcorr_out)")

    p = sub.add_parser("spectrum", help="correlation spectrum vs Marchenko-Pastur bounds")
    add_common(p)

    p = sub.add_parser("elements", help="distribution of correlation-matrix elements")
    add_common(p)
    p.add_argument("--q-target", dest="q_target", type=float,
                   help="pool windows of aspect ratio Q = q_target instead of the full panel")
    p.add_argument("--bins", type=int, help="histogram bin count (default 50)")

    p = sub.add_parser("remove", help="iterative collective-mode removal")
    add_common(p)
    p.add_argument("--remove-count", dest="remove_count", type=int,
                   help="number of modes to remove (default 1)")
    p.add_argument("--from-original", dest="from_original", action="store_const", const=True,
                   help="regress on the original panel's eigensignals instead of "
                        "re-diagonalizing each pass")

    p = sub.add_parser("surrogate", help="randomized surrogate panel and its spectrum")
    add_common(p)
    p.add_argument("--surrogate-kind", dest="surrogate_kind", choices=list(KINDS),
                   help="which randomization to apply")

    p = sub.add_parser("mfdfa", help="multifractal DFA of the leading eigensignals")
    add_common(p)
    p.add_argument("--modes", type=int, help="number of leading eigensignals (default 4)")
    p.add_argument("--q-grid", dest="q_grid", help="moment grid as min:max:step (default -4:4:0.2)")
    p.add_argument("--detrend-order", dest="detrend_order", type=int,
                   help="polynomial detrending order (default 2)")
    p.add_argument("--scales", help="segment lengths: min:max:count (geometric) or comma list")

    p = sub.add_parser("synth", help="generate a synthetic market panel")
    add_common(p)

    p = sub.add_parser("report", help="combined JSON summary incl. lambda1 vs coarsening")
    add_common(p)
    p.add_argument("--bins", type=int, help="histogram bin count (default 50)")
    p.add_argument("--factors", help="comma list of coarsening factors (default 1,2,5,10)")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        return run(args.command, cfg)
    except Exception as e:  # analysis errors -> machine-readable JSON on stderr
        if isinstance(e, (KeyboardInterrupt, SystemExit)):
            raise
        sys.stderr.write(json.dumps({"error": str(e), "type": type(e).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
