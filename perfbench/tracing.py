"""Spans and counters around the package's public functions.

The tracer wraps functions from outside: every module attribute of the
package that is one of the targets below is replaced by a wrapper, so
names imported with ``from .x import f`` are wrapped too.  Spans are kept
in memory as ``[name, start, end, parent, job]`` lists and handed to the
parent process when the run ends; counters only count calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

SPANS = (
    ("symbol_core", "wiener_hopf_factor"),
    ("symbol_core", "laurent_roots"),
    ("symbol_core", "partial_fractions"),
    ("hankel_inversion", "hankel_product_matrix"),
    ("hankel_inversion", "invert_apply"),
    ("hankel_inversion", "inverse_entry"),
    ("band_decay", "band_decay_report"),
    ("spectra", "hermitian_eigen"),
    ("spectra", "monotone_branches"),
    ("spectra", "grid_localize"),
    ("spectra", "det_equation_roots"),
    ("predictor", "levinson"),
    ("predictor", "g_inverse_coeffs"),
)
METHOD_SPANS = (("toeplitz_core", "ToeplitzMatrix", "dense"),)
COUNTS = (("symbol_core", "aberth_roots"),)
METHOD_COUNTS = (("symbol_core", "TrigSymbol", "__call__"),
                 ("symbol_core", "TrigSymbol", "derivative"))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self.paused = False
        self._stack = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package: str = "toeplitz_spectra") -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for wrap, targets in ((self.span, SPANS), (self.counter, COUNTS)):
            for mod, fname in targets:
                original = getattr(sys.modules[f"{package}.{mod}"], fname)
                wrapped = wrap(f"{mod}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        for wrap, targets in ((self.span, METHOD_SPANS),
                              (self.counter, METHOD_COUNTS)):
            for mod, cls_name, meth in targets:
                cls = getattr(sys.modules[f"{package}.{mod}"], cls_name)
                setattr(cls, meth, wrap(f"{mod}.{cls_name}.{meth}",
                                        getattr(cls, meth)))


# per-layer metric -> span whose mean duration per call it reports
LAYER_TIMES = {
    "symbol_core.factor_s": "symbol_core.wiener_hopf_factor",
    "symbol_core.roots_s": "symbol_core.laurent_roots",
    "symbol_core.partial_fractions_s": "symbol_core.partial_fractions",
    "hankel_inversion.context_s": "hankel_inversion.hankel_product_matrix",
    "hankel_inversion.column_s": "hankel_inversion.invert_apply",
    "hankel_inversion.entry_s": "hankel_inversion.inverse_entry",
    "band_decay.report_s": "band_decay.band_decay_report",
    "toeplitz_core.dense_s": "toeplitz_core.ToeplitzMatrix.dense",
    "spectra.eigen_s": "spectra.hermitian_eigen",
    "spectra.branches_s": "spectra.monotone_branches",
    "spectra.localize_s": "spectra.grid_localize",
    "spectra.det_scan_s": "spectra.det_equation_roots",
    "predictor.levinson_s": "predictor.levinson",
    "predictor.g_inverse_s": "predictor.g_inverse_coeffs",
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _scaling_exponent(per_job: dict, cells: list) -> float:
    """Slope of log(time) over log(N), one intercept per group.

    ``per_job`` maps a job index to its mean span time; ``cells[j]`` is the
    job's (group, N).  Groups with a single order carry no slope and drop
    out.  Returns 0.0 when no group has two orders.
    """
    import numpy as np
    groups = {}
    for j, t in per_job.items():
        group, N = cells[j]
        groups.setdefault(group, []).append((np.log(N), np.log(t)))
    num = den = 0.0
    for pts in groups.values():
        x, y = np.array(pts).T
        if np.ptp(x) == 0:
            continue
        num += float(np.sum((x - x.mean()) * (y - y.mean())))
        den += float(np.sum((x - x.mean()) ** 2))
    return num / den if den else 0.0


def layer_metrics(spans: list, counts: dict, cells: list,
                  references: list) -> dict:
    """Per-layer figures of one traced run, as {name: (value, unit)}."""
    n_jobs = len(cells)
    durations, per_job = {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        durations.setdefault(name, []).append(end - start)
        per_job.setdefault(name, {}).setdefault(job, []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    out = {m: (_mean(durations.get(s, [])), "s")
           for m, s in LAYER_TIMES.items()}
    out["band_decay.self_s"] = (_mean(
        [end - start - child_time[i]
         for i, (name, start, end, _, _) in enumerate(spans)
         if name == "band_decay.band_decay_report"]), "s")
    out["symbol_core.aberth_calls"] = (
        counts.get("symbol_core.aberth_roots", 0) / n_jobs, "count")
    out["symbol_core.symbol_evals"] = (
        (counts.get("symbol_core.TrigSymbol.__call__", 0)
         + counts.get("symbol_core.TrigSymbol.derivative", 0)) / n_jobs,
        "count")
    out["hankel_inversion.columns"] = (
        len(durations.get("hankel_inversion.invert_apply", [])), "count")
    out["hankel_inversion.entries"] = (
        len(durations.get("hankel_inversion.inverse_entry", [])), "count")
    for metric, span in (("hankel_inversion.column_exponent",
                          "hankel_inversion.invert_apply"),
                         ("hankel_inversion.entry_exponent",
                          "hankel_inversion.inverse_entry")):
        means = {j: _mean(ts) for j, ts in per_job.get(span, {}).items()}
        out[metric] = (_scaling_exponent(means, cells), "slope")
    out["toeplitz_core.dense_invert_s"] = (
        _mean([t for _, t in references]), "s")
    return out
