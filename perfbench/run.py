"""Benchmark of toeplitz_spectra: one workload per call, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/toeplitz_spectra``.
The seed fixes the job list; the run times whole rounds of it until
``--seconds`` have passed (and at least 40 jobs ran) in a fresh worker
process pinned to one BLAS/OpenMP thread.  Every output is then checked
here, against references computed without the package.  With ``--trace 0``
the end-to-end metrics are printed; job times are in units of the fixed
work of ``yardstick.py``, timed around every job in the same process; with ``--trace 1`` the jobs run with
spans around the package's public functions and the per-layer metrics are
printed instead.  The last line of stdout is the JSON result; result and
trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "toeplitz_spectra"
OUT = HERE / "out"
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 2          # extra set-ups; setup_s is the median of 3
MIN_JOBS = 40
MAX_ROUNDS = 64
PROBE_TIMEOUT_S = 20
RUN_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(plan_path: Path, mode: str, tag: str) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and spawn time."""
    out_path = OUT / f"{tag}-{os.getpid()}.pkl"
    env = dict(os.environ, **PINNED)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path),
             str(out_path), mode],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
            timeout=PROBE_TIMEOUT_S if mode == "probe" else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {exc.timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    try:
        with open(out_path, "rb") as fh:
            return pickle.load(fh), t_spawn
    finally:
        out_path.unlink()


def _plan(workload: str, seed: int):
    """Rounds of jobs, per-round filter rejections, and the minimum rounds."""
    import workloads
    min_rounds = math.ceil(MIN_JOBS / workloads.jobs_per_round(workload))
    rounds, rejected = [], []
    for r in range(max(MAX_ROUNDS, min_rounds)):
        rejected.append(Counter())
        rounds.append(workloads.make_round(workload, seed, r, rejected[-1]))
    return rounds, rejected, min_rounds


def _reference_jobs(workload: str, rounds: list) -> dict:
    """Per round, the jobs whose section also gets a dense LU inverse.

    Every inverse-full section; for point-query one section of N <= 2048
    per round, rotating through them, which keeps memory near 300 MB.
    """
    if workload == "inverse-full":
        return {r: range(len(jobs)) for r, jobs in enumerate(rounds)}
    if workload == "point-query":
        out = {}
        for r, jobs in enumerate(rounds):
            small = [i for i, j in enumerate(jobs) if j["inputs"]["N"] <= 2048]
            out[r] = (small[r % len(small)],)
        return out
    return {}


def _tail(walls: list) -> float:
    """Highest percentile with at least ten jobs beyond it."""
    return sorted(walls)[len(walls) - 11]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import checks
    import workloads
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    if not (SRC / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}")
    OUT.mkdir(exist_ok=True)
    rounds, rejected, min_rounds = _plan(workload, seed)
    plan = {"workload": workload,
            "warmup": workloads.warmup_job(workload),
            "rounds": [[j["inputs"] for j in jobs] for jobs in rounds],
            "min_rounds": min_rounds, "seconds": seconds,
            "reference_jobs": _reference_jobs(workload, rounds) if trace
            else {}}
    plan_path = OUT / f"plan-{os.getpid()}.pkl"
    with open(plan_path, "wb") as fh:
        pickle.dump(plan, fh)
    try:
        setups = []
        if not trace:
            for i in range(SETUP_PROBES):
                res, t_spawn = _spawn(plan_path, "probe", f"probe{i}")
                setups.append(res["t_ready"] - t_spawn)
        res, t_spawn = _spawn(plan_path, "trace" if trace else "run", "main")
        setups.append(res["t_ready"] - t_spawn)
    finally:
        plan_path.unlink()

    records = res["records"]
    n_rounds = records[-1]["round"] + 1
    failed, wrong, max_shift = [], [], 0.0
    for rec in records:
        job = rounds[rec["round"]][rec["index"]]
        if rec["error"] is not None:
            failed.append(rec["error"])
            continue
        msgs = checks.CHECKS[workload](job["truth"], job["inputs"],
                                       rec["output"])
        wrong += [f"round {rec['round']} job {rec['index']}: {m}"
                  for m in msgs]
        if workload == "spectrum-even":
            max_shift = max(max_shift, float(
                abs(rec["output"]["theta_shift"]).max()))
    walls = [rec["wall"] for rec in records]
    sticks = [rec["yardstick"] for rec in records]
    ratios = [w / y for w, y in zip(walls, sticks)]
    info = {"rounds": n_rounds, "traced": trace,
            "filter_rejections": dict(sum(rejected[:n_rounds], Counter())),
            "job_p50_wall_s": statistics.median(walls),
            "yardstick_p50_s": statistics.median(sticks),
            "failures": failed[:5], "check_failures": wrong[:5]}
    if workload == "spectrum-even":
        info["max_abs_theta_shift"] = max_shift
    if trace:
        from tracing import layer_metrics
        cells = [rounds[rec["round"]][rec["index"]]["truth"]["cell"]
                 for rec in records]
        metrics = layer_metrics(res["spans"], res["counts"], cells,
                                res["references"])
        info.update(_reference_figures(rounds, res["references"],
                                       plan["reference_jobs"]))
        with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
            json.dump({"spans": res["spans"], "counts": res["counts"]}, fh)
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "job_p50_ref": (statistics.median(ratios), "ref"),
                   "job_tail_ref": (_tail(ratios), "ref"),
                   "jobs_per_ref": (len(records) / sum(ratios), "1/ref"),
                   "peak_rss_mb": (res["peak_rss_mib"], "MiB")}
    result = {"correct": not wrong, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json",
              "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    return result


def _reference_figures(rounds, references, reference_jobs) -> dict:
    """(N, dense LU s, scipy Levinson s) for every reference section.

    Dense LU is the package's ``dense_invert``, timed in the worker; the
    Levinson solve (one column, ``scipy.linalg.solve_toeplitz``) is timed
    here.
    """
    import checks
    import workloads
    jobs = [rounds[r][i] for r in sorted(reference_jobs)
            for i in reference_jobs[r]]
    out = []
    for job, (N, dense_s) in zip(jobs, references):
        col = checks.section_column(workloads.symbol_coeffs(
            job["truth"]["roots"], job["truth"]["scale"]), N)
        t0 = time.perf_counter()
        checks.inverse_first_column(col)
        out.append((N, round(dense_s, 5),
                    round(time.perf_counter() - t0, 6)))
    return {"references_N_lu_s_levinson_s": sorted(out)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
