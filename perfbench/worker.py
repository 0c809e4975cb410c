"""Worker process: imports the package from the checkout and runs one plan.

    python3 perfbench/worker.py PLAN OUT MODE

PLAN is a pickle written by ``run.py`` holding the workload name, the
warm-up input, the rounds of job inputs, the minimum round count and the
time box.  MODE is ``probe`` (set up, run the warm-up job and stop),
``run`` (time the jobs) or ``trace`` (time them with spans on).  Around
every timed job the worker times the fixed work of ``yardstick.py``.  OUT
receives a pickle of the per-job records and the run's own figures.  The
parent pins BLAS and OpenMP to one thread in this process's environment.
"""

from __future__ import annotations

import pickle
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import toeplitz_spectra
    where = Path(toeplitz_spectra.__file__).resolve().parent
    if where != (SRC / "toeplitz_spectra").resolve():
        raise ImportError(f"toeplitz_spectra imported from {where}, "
                          f"not from {SRC}")
    from toeplitz_spectra.errors import ToeplitzSpectraError
    return ToeplitzSpectraError


def main(argv) -> int:
    plan_path, out_path, mode = argv
    package_error = _import_package()
    import jobs
    import yardstick
    with open(plan_path, "rb") as fh:
        plan = pickle.load(fh)
    traced = mode == "trace"
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    run = jobs.RUNNERS[plan["workload"]]
    run(plan["warmup"], traced)
    if tracer is not None:
        tracer.reset()
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if mode == "probe":
        with open(out_path, "wb") as fh:
            pickle.dump(result, fh)
        return 0

    records, references = [], []
    reference_s = 0.0
    before = yardstick.measure()
    for r, round_inputs in enumerate(plan["rounds"]):
        for i, inp in enumerate(round_inputs):
            if tracer is not None:
                tracer.job = len(records)
            error, out = None, None
            t0 = time.perf_counter()
            try:
                out = run(inp, traced)
            except package_error as exc:
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            after = yardstick.measure()
            records.append({"round": r, "index": i, "wall": wall,
                            "yardstick": 0.5 * (before + after),
                            "error": error, "output": out})
            before = after
        if tracer is not None:
            t0 = time.perf_counter()
            tracer.paused = True
            for i in plan["reference_jobs"].get(r, ()):
                inp = round_inputs[i]
                references.append((inp["N"], jobs.dense_reference(inp)))
            tracer.paused = False
            reference_s += time.perf_counter() - t0
        elapsed = time.monotonic() - t_ready - reference_s
        if r + 1 >= plan["min_rounds"] and elapsed >= plan["seconds"]:
            break
    result.update({
        "records": records,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "references": references,
    })
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(out_path, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
