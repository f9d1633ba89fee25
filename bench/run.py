"""Benchmark of the xcorr batch pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src/``.
One workload runs as a closed loop with one client: rounds of jobs, one after
another in this process, until ``--seconds`` have passed (a round that has
started is finished; after the first round an untraced run stops at the next
job boundary).  Every job's output is checked outside its timed call.  The
end-to-end times are normalized to a nominal host speed, which an untraced
run samples while it works, as far as the workload's time follows that speed
(see reference.py and fit_sensitivity.py).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics of the traced
rounds are printed, and the spans are written to ``bench/out/``.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

``--workload all`` runs each workload in its own process and prints a table
of the end-to-end metrics and the error rate.

See bench/README.md for the workloads, metrics and the held-out seed.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("cli_files", "surrogate_ensemble", "calibration")
SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json defines them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _limit_blas_threads():
    """One BLAS thread, whatever the environment says; must run before numpy is imported.

    On a few shared cores, a BLAS thread that waits for a descheduled sibling
    measures the scheduler, not the program.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _check_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "xcorr", "__init__.py")):
        raise SystemExit(f"bench: no xcorr sources under {src}; run from a checkout of the repository")
    return src


def _import_program():
    src = _check_program()
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH)
    import xcorr

    if os.path.dirname(os.path.dirname(os.path.abspath(xcorr.__file__))) != src:
        raise SystemExit(f"bench: imported xcorr from {xcorr.__file__}, not from {src}")


def environment(workload):
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "machine": platform.machine(),
        "workload_shapes": workload.describe(),
    }


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def run_round(workload, k, tracer=None, deadline=None):
    """Run round k's jobs once, or until the deadline; returns one record per job run."""
    records = []
    artifact_bytes = getattr(workload, "artifact_bytes", lambda job: 0)
    for job in workload.round_jobs(k):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        job.prepare()
        problems, digest, out = [], None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.job(f"r{k}.{job.name}"):
                    out = job.run()
        except Exception as e:  # a job that raises counts as failed
            problems = [f"{job.name}: raised {type(e).__name__}: {e}"]
        t1 = time.perf_counter()
        if not problems:
            try:
                problems = job.check(out)
                digest = job.digest(out)
            except Exception as e:  # a check that cannot read the output fails the job
                problems = [f"{job.name}: check raised {type(e).__name__}: {e}"]
        ok = not problems
        records.append({
            "round": k,
            "job": job.name,
            "key": job.key,
            "cells": job.cells,
            "t0": t0,
            "t1": t1,
            "seconds": t1 - t0,
            "traced": tracer is not None,
            "ok": ok,
            "problems": problems,
            "digest": digest,
            "artifact_bytes": artifact_bytes(job) if ok else 0,
        })
        del out
    return records


def setup(workload):
    """Set the workload up SETUP_REPEATS times.

    Returns the (start, end) windows of the part paid once (process start to
    the end of the BLAS warm-up, imports included) and of each set-up.
    """
    from xcorr import spectrum, synth

    # BLAS start-up: the first large product costs several times a warm one.
    warm = synth.generate(synth.preset("mp_null", seed=0, n_assets=400, t_length=4000))
    spectrum.eigendecompose(spectrum.correlation_matrix(warm))
    del warm
    once = (PROCESS_T0, time.perf_counter())
    repeats = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        repeats.append((t0, time.perf_counter()))
    return once, repeats


def run_workload(name, seed, seconds, trace, shapes=None, sampler=None):
    """Run one workload; returns (result line, full record, tracer or None).

    An untraced run samples the host's speed (``reference.Sampler``); pass a
    started sampler to cover the time before this call too.
    """
    import reference
    import workloads
    from spans import Tracer, layer_metrics

    shapes = shapes or workloads.PAPER
    work_dir = os.path.relpath(os.path.join(OUT, f"{name}-seed{seed}"), ROOT)
    wl = workloads.make(name, seed, shapes, work_dir)
    if sampler is None and not trace:
        sampler = reference.Sampler().start()
    try:
        once, repeats = setup(wl)
        tracer = Tracer() if trace else None
        records, layer_rounds = [], []
        deadline = time.perf_counter() + seconds
        k = 0
        peak_rss_mb = None
        # An untraced run stops at the first job boundary past the deadline,
        # after one whole round; a traced run stops at a round boundary,
        # after one untraced and one traced round.
        while k < (2 if trace else 1) or time.perf_counter() < deadline:
            if trace and k % 2 == 1:
                first = len(tracer.spans)
                round_records = run_round(wl, k, tracer)
                metrics, wall = layer_metrics(tracer.spans[first:], _file_size)
                metrics["cli.artifact_bytes"] = sum(r["artifact_bytes"] for r in round_records)
                metrics["trace.wall_s"] = wall
                layer_rounds.append(metrics)
            else:
                round_records = run_round(wl, k, deadline=None if trace or k == 0 else deadline)
            records.extend(round_records)
            if k == 0:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            k += 1
        env = environment(wl)
    finally:
        if sampler is not None:
            sampler.stop()
        wl.close()

    digests = {}
    for r in records:
        if r["digest"] is None:
            continue
        seen = digests.setdefault(r["key"], r["digest"])
        if seen != r["digest"]:
            r["ok"] = False
            r["problems"].append(f"{r['key']}: digest differs from an earlier round")
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])

    # Each timed window's time net of the probes inside it, and that divided
    # by the host's slowness around it raised to the workload's sensitivity
    # (1.0 without a sampler).
    def net(t0, t1):
        return t1 - t0 - (sampler.probe_seconds(t0, t1) if sampler else 0.0)

    def slowness(t0, t1):
        return sampler.slowness(t0, t1) if sampler else 1.0

    def norm(t0, t1):
        return net(t0, t1) / slowness(t0, t1) ** wl.host_sensitivity

    for r in records:
        r["net_s"], r["slowness"] = net(r["t0"], r["t1"]), slowness(r["t0"], r["t1"])
        r["norm_s"] = r["net_s"] / r["slowness"] ** wl.host_sensitivity
    setup_s = net(*once) + statistics.median(net(*w) for w in repeats)
    norm_setup = norm(*once) + statistics.median(norm(*w) for w in repeats)
    untraced = [r for r in records if not r["traced"]]
    wall = _round_wall(untraced, "net_s")
    cells = sum(r["cells"] for r in records if r["round"] == 0)
    if trace:
        metrics = {key: statistics.fmean(m[key] for m in layer_rounds) for key in layer_rounds[0]}
        metrics["trace.overhead_s"] = _round_wall([r for r in records if r["traced"]], "net_s") - wall
    else:
        norm_wall = _round_wall(untraced, "norm_s")
        metrics = {
            "norm_wall_s": norm_wall,
            "norm_cells_per_s": cells / norm_wall,
            "setup_s": norm_setup,
            "peak_rss_mb": peak_rss_mb,
        }
    units = metric_units()[1 if trace else 0]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "rounds": k,
        "setup_times_s": [net(*w) for w in repeats],
        "measured": {"wall_s": wall, "cells_per_s": cells / wall, "setup_s": setup_s},
        "host_speed": None if sampler is None else {
            "nominal_s": reference.NOMINAL_S,
            "host_sensitivity": wl.host_sensitivity,
            "interval_s": reference.INTERVAL_S,
            "samples": len(sampler.starts),
            "median_probe_s": statistics.median(e - s for s, e in zip(sampler.starts, sampler.ends)),
            "probe_starts": sampler.starts,
            "probe_ends": sampler.ends,
        },
        "error_rate": failed / attempted,
        "environment": env,
        "digests": digests,
        "jobs": records,
        "result": line,
    }
    return line, record, tracer


def _round_wall(records, key):
    """Time of one round: the sum over its jobs of each job's median ``record[key]``.

    Rounds repeat the same job list, so the median over the run's rounds of
    each job is robust to a single slow round.
    """
    by_job = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(r[key])
    return sum(statistics.median(times) for times in by_job.values())


def _print_report(line, record):
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for r in record["jobs"]:
        status = "ok" if r["ok"] else "FAILED " + "; ".join(r["problems"])
        tag = " traced" if r["traced"] else ""
        print(f"job r{r['round']} {r['job']:<24} {r['net_s']:.4f} s slowness {r['slowness']:.3f} "
              f"norm {r['norm_s']:.4f} s{tag} {status}")
    for key, digest in sorted(record["digests"].items()):
        print(f"digest {key} sha256={digest}")
    host = record["host_speed"]
    if host is not None:
        print(f"host speed: probe median {host['median_probe_s'] * 1e3:.3f} ms over {host['samples']} samples, "
              f"nominal {host['nominal_s'] * 1e3:.3f} ms, host sensitivity {host['host_sensitivity']}")
    for key, value in record["measured"].items():
        print(f"measured {key} {value!r} (not normalized)")
    for key, m in line["metrics"].items():
        print(f"metric {key} {m['value']!r} {m['unit']}")
    print(f"metric error_rate {record['error_rate']!r} failed/attempted "
          f"({line['failed']}/{line['attempted']})")


def _run_all(seed, seconds):
    """Each workload in its own process, so peak RSS is per workload."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        measured = {f: float(v) for _, f, v, *_ in (ln.split() for ln in lines if ln.startswith("measured "))}
        rows.append((name, res, measured))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    units = metric_units()[0]
    measured_units = {"wall_s": "s", "cells_per_s": "cells/s"}
    print(f"{'workload':<20} " + " ".join(f"{k + ' [' + u + ']':>26}" for k, u in units.items())
          + " " + " ".join(f"{'measured ' + k + ' [' + u + ']':>30}" for k, u in measured_units.items())
          + f" {'error_rate [failed/attempted]':>30}")
    for name, res, measured in rows:
        vals = " ".join(f"{res['metrics'][k]['value']:>26.6g}" for k in units)
        vals += " " + " ".join(f"{measured[k]:>30.6g}" for k in measured_units)
        print(f"{name:<20} {vals} {res['failed'] / res['attempted']:>30.6g}")
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _limit_blas_threads()
    _check_program()
    sampler = None
    if args.workload != "all" and not args.trace:
        # Started before numpy is imported, so that set-up is sampled whole.
        sys.path.insert(0, BENCH)
        import reference

        sampler = reference.Sampler().start()
    try:
        _import_program()
        os.chdir(ROOT)
        if args.workload == "all":
            print(json.dumps(_run_all(args.seed, args.seconds)))
            return 0
        line, record, tracer = run_workload(args.workload, args.seed, args.seconds, args.trace, sampler=sampler)
    finally:
        if sampler is not None:
            sampler.stop()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    _print_report(line, record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
