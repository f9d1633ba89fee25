"""The three benchmark workloads: inputs made from a seed, jobs, output checks.

A workload's ``setup`` builds the inputs (untimed by the job loop; it is what
``setup_s`` measures).  ``round_jobs(k)`` returns the jobs of round k, which
run one after another in this process (a closed loop with one client).  Each
job's output is checked, and digested, outside its timed call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from xcorr import cli, mfdfa, modes, panel, spectrum, surrogate, synth

EIG_SUM_TOL = 1e-8  # trace conservation, as in xcorr.spectrum.TRACE_TOL
MP_EDGE_RTOL = 1e-12
CASCADE_P = 0.3
CASCADE_LEVELS = 16
CASCADE_H_TOL = 0.05  # tests/test_mfdfa.py::TestBinomialCascade tolerance
CASCADE_Q = (-4.0, -2.0, 2.0, 4.0)
RANDOMIZED_KINDS = ("rotate_free", "rotate_daily", "shuffle_signs", "shuffle_magnitudes")
VOL_CLUSTERING = (0.97, 0.2)


@dataclass
class Job:
    """One timed call.  ``key`` names its inputs: equal keys must give equal digests."""

    name: str
    key: str
    cells: int
    run: Callable[[], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], str]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Shapes:
    cli: tuple = (100, 10_000)
    surrogate: tuple = (400, 40_600)
    calibration: tuple = (100, 40_600)
    mfdfa_modes: int = 16


PAPER = Shapes()
TINY = Shapes(cli=(12, 2_000), surrogate=(50, 2_000), calibration=(20, 2_000), mfdfa_modes=4)


def round_seed(seed, k):
    """Data seed of round k: every round draws a fresh, reproducible sample."""
    return seed * 1000 + k


# ---------------------------------------------------------------------------
# Output checks (each returns a list of problems; empty means correct)
# ---------------------------------------------------------------------------

def check_eigenvalues(values, n, where):
    vals = np.asarray(values, dtype=float)
    problems = []
    if vals.size != n:
        problems.append(f"{where}: {vals.size} eigenvalues for {n} series")
    if abs(vals.sum() - n) >= EIG_SUM_TOL:
        problems.append(f"{where}: eigenvalue sum {vals.sum()!r} != N = {n}")
    if (np.diff(vals) > 0).any():
        problems.append(f"{where}: eigenvalues not in descending order")
    return problems


def check_mp(mp, q, where):
    expected = {
        "lambda_min": 1.0 + 1.0 / q - 2.0 / math.sqrt(q),
        "lambda_max": 1.0 + 1.0 / q + 2.0 / math.sqrt(q),
    }
    return [
        f"{where}: MP {key} {mp[key]!r} != closed form {val!r}"
        for key, val in expected.items()
        if not math.isclose(mp[key], val, rel_tol=MP_EDGE_RTOL)
    ]


def check_overlap(gamma, where):
    return [] if 0.0 <= gamma <= 1.0 else [f"{where}: overlap fraction {gamma!r} outside [0, 1]"]


def check_spectrum(spec, bounds, gamma, n, t, where):
    return (
        check_eigenvalues(spec.eigenvalues, n, where)
        + check_mp(bounds.to_dict(), t / n, where)
        + check_overlap(gamma, where)
    )


def sampled_rows(n):
    return sorted({0, n // 2, n - 1})


def check_multiset(kind, original, sur, rows):
    """Rotations keep each row's values; shuffles keep the permuted component."""
    problems = []
    for i in rows:
        a, b = original[i], sur[i]
        if kind.startswith("rotate"):
            same = np.array_equal(np.sort(a), np.sort(b))
        elif kind == "shuffle_signs":
            same = np.array_equal(np.sort(np.sign(a)), np.sort(np.sign(b))) and np.array_equal(
                np.abs(a), np.abs(b)
            )
        else:
            same = np.array_equal(np.sort(np.abs(a)), np.sort(np.abs(b))) and np.array_equal(
                np.sign(a), np.sign(b)
            )
        if not same:
            problems.append(f"{kind}: row {i} does not keep its value multiset")
    return problems


def cascade_h(q):
    p = CASCADE_P
    return 1.0 / q - math.log2(p**q + (1.0 - p) ** q) / q


def check_cascade(surface):
    problems = []
    for q in CASCADE_Q:
        i = int(np.argmin(np.abs(surface.q_grid - q)))
        if not abs(surface.h[i] - cascade_h(q)) < CASCADE_H_TOL:
            problems.append(f"cascade h({q}) = {surface.h[i]!r}, closed form {cascade_h(q)!r}")
    return problems


def sha256_arrays(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def spectrum_digest(out):
    return sha256_arrays(out["spec"].eigenvalues, out["spec"].eigenvectors, out["gamma"])


def _spectrum_of(p):
    c = spectrum.correlation_matrix(p)
    s = spectrum.eigendecompose(c)
    b = spectrum.mp_bounds(c.t_length / c.n_series)
    return s, b, spectrum.overlap_fraction(s, b)


# ---------------------------------------------------------------------------
# surrogate_ensemble
# ---------------------------------------------------------------------------

class SurrogateEnsemble:
    """Every surrogate kind on one market_sectors panel, through its spectrum."""

    name = "surrogate_ensemble"
    # How this workload's time follows the host-speed probe's (run.py normalizes
    # by slowness ** host_sensitivity); fitted by fit_sensitivity.py over ten
    # 30 s runs, slope 0.43, rounded to 0.05.
    host_sensitivity = 0.45

    def __init__(self, seed, shapes):
        self.seed = seed
        self.n, self.t = shapes.surrogate
        self.panel = None

    def setup(self):
        self.panel = None
        model = synth.preset("market_sectors", seed=self.seed, n_assets=self.n, t_length=self.t)
        self.panel = synth.generate(model)

    def describe(self):
        return {"panel": [self.n, self.t], "preset": "market_sectors", "panel_seed": self.seed,
                "surrogate_seeds": "round_seed(seed, round)", "panel_bytes_computed": self.n * self.t * 8}

    def round_jobs(self, k):
        s = round_seed(self.seed, k)
        jobs = [self._job(kind, s) for kind in RANDOMIZED_KINDS]
        jobs += [self._job(kind, 0) for kind in ("signs_only", "magnitudes_only")]
        return jobs

    def _job(self, kind, s):
        spec = surrogate.SurrogateSpec(kind=kind, seed=s)
        n, t = self.n, self.t
        randomized = kind in RANDOMIZED_KINDS

        def run():
            raw = surrogate.apply_surrogate(self.panel, spec)
            z = raw if raw.standardized else panel.standardize(raw)
            sp, b, g = _spectrum_of(z)
            return {"raw": raw, "spec": sp, "bounds": b, "gamma": g, "n": z.n_assets, "t": z.t_length}

        def check(out):
            problems = check_spectrum(out["spec"], out["bounds"], out["gamma"], out["n"], out["t"], kind)
            if randomized:
                problems += check_multiset(kind, self.panel.returns, out["raw"].returns, sampled_rows(n))
            return problems

        return Job(
            name=kind,
            key=f"{kind}@{s}" if randomized else kind,
            cells=n * t,
            run=run,
            check=check,
            digest=spectrum_digest,
        )

    def close(self):
        self.panel = None


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

class Calibration:
    """Synthetic one-factor market with clustered volatility, through MFDFA."""

    name = "calibration"
    host_sensitivity = 0.8  # fitted slope 0.78; see SurrogateEnsemble

    def __init__(self, seed, shapes):
        self.seed = seed
        self.n, self.t = shapes.calibration
        self.n_modes = shapes.mfdfa_modes

    def setup(self):
        pass

    def describe(self):
        return {"panel": [self.n, self.t], "preset": "one_factor", "vol_clustering": list(VOL_CLUSTERING),
                "panel_seeds": "round_seed(seed, round)",
                "mfdfa_modes": self.n_modes, "cascade": [CASCADE_P, CASCADE_LEVELS],
                "panel_bytes_computed": self.n * self.t * 8}

    def round_jobs(self, k):
        s = round_seed(self.seed, k)
        n, t = self.n, self.t
        state = {}

        def generate():
            model = synth.preset("one_factor", seed=s, n_assets=n, t_length=t, vol_clustering=VOL_CLUSTERING)
            state["panel"] = synth.generate(model)
            return state["panel"]

        def spectrum_job():
            sp, b, g = _spectrum_of(state["panel"])
            state["spec"] = sp
            return {"spec": sp, "bounds": b, "gamma": g}

        def remove():
            return modes.remove_modes_iterative(state["panel"], 3)

        def mfdfa_job():
            zs = modes.eigensignals(state["panel"], state["spec"], range(1, self.n_modes + 1))
            return [mfdfa.analyze(z.series) for z in zs]

        def cascade():
            surface, _ = mfdfa.analyze(mfdfa.binomial_cascade(CASCADE_P, CASCADE_LEVELS))
            return surface

        def check_generated(p):
            if p.returns.shape != (n, t) or not p.standardized:
                return [f"generate: got shape {p.returns.shape}, standardized={p.standardized}"]
            return []

        def check_removed(res):
            problems = []
            if res.removed_modes != [1, 2, 3]:
                problems.append(f"remove: removed modes {res.removed_modes}")
            if not res.panel.standardized or res.panel.t_length != t:
                problems.append("remove: residual panel is not a standardized T-length panel")
            return problems

        def check_mfdfa(results):
            problems = []
            if len(results) != self.n_modes:
                problems.append(f"mfdfa: {len(results)} spectra for {self.n_modes} modes")
            for surface, _ in results:
                if not np.isfinite(surface.h).all():
                    problems.append("mfdfa: non-finite h(q)")
            return problems

        cells = n * t
        return [
            Job("generate", f"generate@{s}", cells, generate, check_generated,
                lambda p: sha256_arrays(p.returns)),
            Job("spectrum", f"spectrum@{s}", cells, spectrum_job,
                lambda o: check_spectrum(o["spec"], o["bounds"], o["gamma"], n, t, "spectrum"),
                spectrum_digest),
            Job("remove", f"remove@{s}", cells, remove, check_removed,
                lambda r: sha256_arrays(r.panel.returns, *r.betas)),
            Job("mfdfa", f"mfdfa@{s}", cells, mfdfa_job, check_mfdfa,
                lambda rs: sha256_arrays(*[sf.values for sf, _ in rs])),
            Job("cascade", "cascade", 2**CASCADE_LEVELS, cascade, check_cascade,
                lambda sf: sha256_arrays(sf.values, sf.h)),
        ]

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli_files
# ---------------------------------------------------------------------------

def write_wide_prices(p, path, rng):
    """Wide price CSV of the panel's assets, with a few interior gaps."""
    n, t = p.returns.shape
    prices = 100.0 * np.exp(np.concatenate([np.zeros((n, 1)), np.cumsum(1e-3 * p.returns, axis=1)], axis=1))
    text = prices.astype(object)
    gap_assets = rng.choice(n, size=min(5, n), replace=False)
    for i in gap_assets:
        for j in rng.choice(np.arange(1, t), size=max(1, t // 500), replace=False):
            text[i, j] = ""
    with open(path, "w") as fh:
        fh.write("timestamp," + ",".join(p.assets) + "\n")
        for j in range(t + 1):
            cells = [v if v == "" else repr(float(v)) for v in text[:, j]]
            fh.write(repr(j * p.dt_seconds) + "," + ",".join(cells) + "\n")


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.startswith("."):
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def read_panel_columns(path, assets):
    """Columns of a native panel CSV for the given assets, without a full parse."""
    cols, header = None, None
    values = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split(",")
            if header is None:
                header = fields
                cols = [header.index(a) for a in assets]
                continue
            values.append([float(fields[c]) for c in cols])
    return np.array(values).T


class CliFiles:
    """Each CLI subcommand on a native panel CSV and a wide price CSV."""

    name = "cli_files"
    host_sensitivity = 1.0  # fitted slope 0.99; see SurrogateEnsemble

    def __init__(self, seed, shapes, work_dir):
        self.seed = seed
        self.n, self.t = shapes.cli
        self.work = work_dir
        self.panel_csv = os.path.join(work_dir, "panel.csv")
        self.prices_csv = os.path.join(work_dir, "prices.csv")
        self.panel = None

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.panel = synth.generate(synth.preset("one_factor", seed=self.seed, n_assets=self.n, t_length=self.t))
        cli.export_panel(self.panel, self.panel_csv)
        write_wide_prices(self.panel, self.prices_csv, np.random.default_rng(self.seed))

    def describe(self):
        return {"panel": [self.n, self.t], "preset": "one_factor", "panel_seed": self.seed,
                "surrogate_seed": self.seed, "panel_csv_bytes": os.path.getsize(self.panel_csv),
                "prices_csv_bytes": os.path.getsize(self.prices_csv),
                "panel_bytes_computed": self.n * self.t * 8}

    def round_jobs(self, k):
        panel_in = ["--input", self.panel_csv, "--format", "panel"]
        specs = [
            ("spectrum", ["spectrum", *panel_in]),
            ("elements", ["elements", *panel_in, "--q-target", "2.0"]),
            ("remove", ["remove", *panel_in, "--remove-count", "3"]),
            ("surrogate_shuffle_signs", ["surrogate", *panel_in, "--surrogate-kind", "shuffle_signs",
                                         "--seed", str(self.seed)]),
            ("surrogate_rotate_daily", ["surrogate", *panel_in, "--surrogate-kind", "rotate_daily",
                                        "--seed", str(self.seed)]),
            ("mfdfa", ["mfdfa", *panel_in, "--modes", "4"]),
            ("report", ["report", *panel_in]),
            ("spectrum_wide", ["spectrum", "--input", self.prices_csv, "--format", "wide",
                               "--bars-per-day", str(self.panel.bars_per_day)]),
        ]
        return [self._job(name, argv) for name, argv in specs]

    def _job(self, name, argv):
        out = os.path.join(self.work, "out", name)
        argv = [*argv, "--out", out]

        def prepare():
            shutil.rmtree(out, ignore_errors=True)

        def run():
            try:
                return cli.main(argv)
            except SystemExit as e:  # argparse rejects a command line with exit code 2
                return e.code

        def check(rc):
            if rc != 0:
                return [f"{name}: exit code {rc}"]
            return self._check_artifacts(name, out)

        return Job(name=name, key=name, cells=self.n * self.t, run=run, check=check,
                   digest=lambda rc: dir_digest(out), prepare=prepare)

    def _check_artifacts(self, name, out):
        docs = {}
        for f in sorted(os.listdir(out)):
            if f.endswith(".json"):
                try:
                    with open(os.path.join(out, f)) as fh:
                        docs[f] = json.load(fh)
                except (OSError, ValueError) as e:
                    return [f"{name}: {f} does not parse: {e}"]
        if "config.json" not in docs:
            return [f"{name}: no config.json"]
        n, t = self.n, self.t
        problems = []
        if "spectrum.json" in docs:
            d = docs["spectrum.json"]
            problems += check_eigenvalues(d["eigenvalues"], d["n_series"], name)
            problems += check_mp(d["mp"], d["t_length"] / d["n_series"], name)
            problems += check_overlap(d["overlap_fraction"], name)
        if "remove.json" in docs:
            d = docs["remove.json"]
            problems += check_eigenvalues(d["original_eigenvalues"], n, name)
            for p in d["passes_spectra"]:
                problems += check_eigenvalues(p["eigenvalues"], p["n_series"], f"{name} pass {p['removed']}")
                problems += check_overlap(p["overlap_fraction"], name)
            problems += check_mp(d["mp"], t / n, name)
        if "surrogate.json" in docs:
            d = docs["surrogate.json"]
            problems += check_eigenvalues(d["surrogate_eigenvalues"], n, name)
            problems += check_overlap(d["surrogate_overlap_fraction"], name)
            problems += check_mp(d["mp"], t / n, name)
            kind = d["surrogate"]["kind"]
            if kind.startswith("rotate"):
                rows = sampled_rows(n)
                sur = read_panel_columns(os.path.join(out, "surrogate_panel.csv"),
                                         [self.panel.assets[i] for i in rows])
                problems += check_multiset(kind, self.panel.returns[rows], sur, range(len(rows)))
        if "report.json" in docs:
            d = docs["report.json"]["spectrum"]
            problems += check_eigenvalues(d["eigenvalues"], n, name)
            problems += check_mp(d["mp"], t / n, name)
            problems += check_overlap(d["overlap_fraction"], name)
        if "mfdfa.json" in docs:
            per_mode = docs["mfdfa.json"]["per_mode"]
            if len(per_mode) != 4 or not all(np.isfinite(m["h"]).all() for m in per_mode):
                problems.append(f"{name}: mfdfa.json does not hold 4 finite h(q) curves")
        return problems

    def artifact_bytes(self, job):
        return dir_bytes(os.path.join(self.work, "out", job.name))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def make(name, seed, shapes, work_dir):
    if name == "cli_files":
        return CliFiles(seed, shapes, work_dir)
    if name == "surrogate_ensemble":
        return SurrogateEnsemble(seed, shapes)
    if name == "calibration":
        return Calibration(seed, shapes)
    raise ValueError(f"unknown workload {name!r}")
