"""Fit each workload's host sensitivity from the records of untraced runs.

    python3 bench/fit_sensitivity.py bench/out/*-trace0.json

A job's host sensitivity is the slope of log(time net of probes) against
log(slowness) over all its runs and rounds: 1 if the job slows exactly as the
probe does, 0 if it does not slow at all.  A workload's sensitivity is the
mean of its jobs' slopes, each weighted by the job's share of a round's time.
Re-fit and update ``host_sensitivity`` in workloads.py when a change moves a
workload's time between interpreter-bound and numpy-bound work; the fit needs
runs that met the host at different speeds (ten runs of 30 s usually do).
"""

import json
import math
import statistics
import sys


def job_slope(points):
    """Least-squares slope of y on x for [(x, y), ...]."""
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        raise ValueError("the host's speed did not vary across these runs; nothing to fit")
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def fit(records):
    """workload -> (sensitivity, {job: (slope, share of a round)})."""
    by_workload = {}
    for rec in records:
        for r in rec["jobs"]:
            if r["traced"] or not r["ok"] or r["net_s"] <= 0:
                continue
            jobs = by_workload.setdefault(rec["workload"], {})
            jobs.setdefault(r["job"], []).append((math.log(r["slowness"]), math.log(r["net_s"])))
    out = {}
    for workload, jobs in by_workload.items():
        mean_s = {job: statistics.fmean(math.exp(y) for _, y in pts) for job, pts in jobs.items()}
        total = sum(mean_s.values())
        per_job = {job: (job_slope(pts), mean_s[job] / total) for job, pts in jobs.items()}
        out[workload] = (sum(slope * share for slope, share in per_job.values()), per_job)
    return out


def main(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        if not rec["trace"]:
            records.append(rec)
    for workload, (sensitivity, per_job) in sorted(fit(records).items()):
        runs = sum(1 for rec in records if rec["workload"] == workload)
        print(f"{workload}: host sensitivity {sensitivity:.3f} over {runs} runs")
        for job, (slope, share) in per_job.items():
            print(f"  {job:<24} slope {slope:.3f} share {share:.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
