"""Command-line front end: factor / eigen / invert / decay / predictor.

Every command reads a symbol literal (JSON object or @file), runs one
pipeline, writes CSV to stdout or --out, and optionally a JSON summary.
``invert --full`` builds the whole inverse as the decay report does: one
structured column solve, then every entry by the Gohberg-Semencul formula.
No command draws random numbers, so equal arguments give byte-identical
output.  The decay summary's C is ``null`` where it overflows.  Exit codes:
0 success, 1 usage or input error, 2 a numerical check failed (diagnostics
go to the JSON summary and stderr).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import band_decay as bd
from . import hankel_inversion as hi
from . import predictor as pred
from . import spectra
from .errors import ToeplitzSpectraError
from .symbol_core import TrigSymbol, symbol_from_spec, wiener_hopf_factor
from .toeplitz_core import build, dense_invert, format_complex

log = logging.getLogger("toeplitz_spectra")

DIGITS = 17


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, complex) or isinstance(x, np.complexfloating):
        z = complex(x)
        # arithmetic residue on provably real quantities is chopped so that
        # real symbols produce plain-real CSV cells
        if abs(z.imag) <= 1e-13 * max(1.0, abs(z)):
            return f"{z.real:.{DIGITS}g}"
        return format_complex(z, DIGITS)
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.{DIGITS}g}"
    return str(x)


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _configure_logging():
    level = os.environ.get("TOEPLITZ_SPECTRA_LOG", "quiet").lower()
    chosen = {"quiet": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}.get(level, logging.WARNING)
    if not log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        log.addHandler(handler)
    log.setLevel(chosen)


def _load_symbol(text: str) -> TrigSymbol:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read symbol file: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"malformed symbol JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    try:
        return symbol_from_spec(spec)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_orders(args) -> list[int]:
    if args.N is not None and args.N_sweep:
        raise _UsageError("--N and --N-sweep are mutually exclusive")
    if args.N is not None:
        if args.N < 1:
            raise _UsageError("--N must be at least 1")
        return [args.N]
    if args.N_sweep:
        try:
            orders = [int(tok) for tok in args.N_sweep.split(",")]
        except ValueError as exc:
            raise _UsageError(f"bad --N-sweep list: {exc}") from exc
        if not orders or min(orders) < 1:
            raise _UsageError("--N-sweep needs positive integers")
        return orders
    raise _UsageError("one of --N or --N-sweep is required")


def _emit(args, csv_text: str, summary: dict):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.json_summary:
        with open(args.json_summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True,
                      default=_json_default)
            fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_factor(args) -> int:
    sym = _load_symbol(args.symbol)
    fac = wiener_hopf_factor(sym)
    lines = ["item,value,multiplicity"]
    lines.append(f"scale,{_fmt(fac.scale)},")
    lines.append(f"phase,{_fmt(fac.phase)},")
    for w, s in fac.g1_factors:
        lines.append(f"g1_pole,{_fmt(w)},{s}")
    for a, s in fac.g2_factors:
        lines.append(f"g2_pole,{_fmt(a)},{s}")
    # wiener_hopf_factor raises where the residual fails its RECON_TOL check
    lines.append(f"reconstruction_residual,{_fmt(fac.residual)},")
    summary = {
        "scale": fac.scale,
        "phase": [fac.phase.real, fac.phase.imag],
        "n0": fac.n0,
        "rho": fac.rho,
        "reconstruction_residual": fac.residual,
        "pass": True,
    }
    _emit(args, "\n".join(lines) + "\n", summary)
    return 0


def _cmd_eigen(args) -> int:
    sym = _load_symbol(args.symbol)
    orders = _parse_orders(args)
    lines = ["N,j,lambda,k,theta_shift,f_grid,residual"]
    ok = True
    worst_shift = 0.0
    for N in orders:
        eig = spectra.hermitian_eigen(build(sym, N).dense())
        locs = spectra.grid_localize(sym, N, eig)
        for j, (lam, loc) in enumerate(zip(eig.eigenvalues, locs), start=1):
            grid_theta = loc.k * np.pi / (N + 2)
            f_grid = float(sym(grid_theta))
            resid = abs(float(sym(grid_theta + loc.theta_shift * np.pi / N))
                        - lam)
            worst_shift = max(worst_shift, abs(loc.theta_shift))
            lines.append(
                f"{N},{j},{_fmt(lam)},{loc.k},{_fmt(loc.theta_shift)},"
                f"{_fmt(f_grid)},{_fmt(resid)}")
            if args.check_oracle and resid > 1e-6 * max(1.0, abs(lam)):
                ok = False
    if worst_shift >= 1.0:
        ok = False
    summary = {"orders": orders, "max_theta_shift": worst_shift, "pass": ok}
    _emit(args, "\n".join(lines) + "\n", summary)
    return 0 if ok else 2


def _cmd_invert(args) -> int:
    sym = _load_symbol(args.symbol)
    (N,) = _parse_orders(args)
    modes = [m for m in (args.entry, args.column, "full" if args.full else None)
             if m is not None]
    if len(modes) != 1:
        raise _UsageError("exactly one of --entry, --column, --full")
    fac = wiener_hopf_factor(sym)
    summary = {"N": N}
    ok = True
    if args.entry is not None:
        try:
            k_str, l_str = args.entry.split(",")
            k, l = int(k_str), int(l_str)
        except ValueError as exc:
            raise _UsageError(f"bad --entry: {exc}") from exc
        val = hi.inverse_entry(fac, N, k, l)
        csv_text = _fmt(val) + "\n"
        summary["entry"] = [k, l]
        if args.check_oracle:
            gap = abs(val - dense_invert(build(sym, N))[k, l])
            summary["oracle_gap"] = gap
            ok = gap <= 1e-8
    elif args.column is not None:
        col = hi.invert_apply(fac, N, _unit_vector(args.column, N))
        csv_text = "\n".join(_fmt(v) for v in col) + "\n"
        summary["column"] = args.column
        if args.check_oracle:
            gap = float(np.max(np.abs(
                col - dense_invert(build(sym, N))[:, args.column])))
            summary["oracle_gap"] = gap
            ok = gap <= 1e-8
    else:
        inv = bd._hermitian_from_diagonals(
            bd._gs_diagonals(hi.invert_apply(fac, N, [1])))
        csv_text = "".join(
            ",".join(_fmt(v) for v in row) + "\n" for row in inv)
        if args.check_oracle:
            gap = float(np.max(np.abs(inv - dense_invert(build(sym, N)))))
            summary["oracle_gap"] = gap
            ok = gap <= 1e-8
    summary["pass"] = ok
    _emit(args, csv_text, summary)
    return 0 if ok else 2


def _unit_vector(l: int, N: int) -> np.ndarray:
    if not 0 <= l <= N:
        raise _UsageError(f"column index {l} outside [0, {N}]")
    Q = np.zeros(l + 1)
    Q[l] = 1.0
    return Q


def _cmd_decay(args) -> int:
    sym = _load_symbol(args.symbol)
    orders = _parse_orders(args)
    band = bd.BandSymbol.from_symbol(sym)
    lines = ["N,d,M"]
    summaries = []
    ok = True
    for N in orders:
        rep = bd.band_decay_report(band, N, check_oracle=args.check_oracle)
        for d, m in zip(rep.offsets, rep.magnitudes):
            lines.append(f"{N},{d},{_fmt(m)}")
        if args.rho is not None:
            target = (np.log(args.rho) if args.rho < 1.0
                      else -np.log(args.rho))
        else:
            target = rep.target
        C = bd._bound_constant(np.array(rep.magnitudes), *rep.fit_window,
                               target)
        passed = rep.exact_band or (
            rep.slope is not None and abs(rep.slope - target) <= args.slope_tol)
        if args.check_oracle and rep.oracle_gap is not None:
            passed = passed and rep.oracle_gap <= 1e-8
        summaries.append({
            "N": N,
            "slope": rep.slope,
            "target": float(target),
            "C": C,
            "exact_band": rep.exact_band,
            "oracle_gap": rep.oracle_gap,
            "pass": passed,
        })
        ok = ok and passed
    _emit(args, "\n".join(lines) + "\n",
          {"rho": band.rho, "reports": summaries, "pass": ok})
    return 0 if ok else 2


def _cmd_predictor(args) -> int:
    sym = _load_symbol(args.symbol)
    if args.M is None or args.M < 0:
        raise _UsageError("--M is required and must be nonnegative")
    P = pred.levinson(sym, args.M)
    fac = wiener_hopf_factor(sym)
    b = pred.g_inverse_coeffs(fac, args.M + 1)
    limit = np.conj(b[0]) * b / abs(b[0])
    lines = ["u,beta,limit,err"]
    for u in range(args.M + 1):
        err = abs(P.beta[u] - limit[u])
        lines.append(f"{u},{_fmt(P.beta[u])},{_fmt(limit[u])},{_fmt(err)}")
    summary = {"M": args.M}
    ok = True
    if args.check_oracle:
        resid = pred.property1_check(sym, args.M)
        summary["property1_residual"] = resid
        ok = resid <= 1e-8
    if args.lemma1:
        try:
            N_list = [int(tok) for tok in args.lemma1.split(",")]
        except ValueError as exc:
            raise _UsageError(f"bad --lemma1 list: {exc}") from exc
        b_long = pred.g_inverse_coeffs(fac, max(N_list) // 2 + 2)
        rep = pred.lemma1_rate(sym, b_long, N_list)
        summary["lemma1"] = {
            "N": list(rep.N_list),
            "err": list(rep.errors),
            "slope": rep.slope,
            "non_increasing": rep.non_increasing(),
        }
        ok = ok and rep.non_increasing()
    summary["pass"] = ok
    _emit(args, "\n".join(lines) + "\n", summary)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="toeplitz-spectra",
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--symbol", required=True,
                       help="symbol literal JSON or @file")
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--N-sweep", dest="N_sweep", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--json-summary", dest="json_summary", default=None)
        p.add_argument("--check-oracle", dest="check_oracle",
                       action="store_true")

    p = sub.add_parser("factor", help="spectral factorization report")
    common(p)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("eigen", help="eigenvalues with grid localization")
    common(p)
    p.set_defaults(fn=_cmd_eigen)

    p = sub.add_parser("invert", help="structured inverse entries")
    common(p)
    p.add_argument("--entry", default=None, metavar="k,l")
    p.add_argument("--column", type=int, default=None)
    p.add_argument("--full", action="store_true",
                   help="whole inverse from one column (Gohberg-Semencul)")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("decay", help="inverse off-diagonal decay report")
    common(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--slope-tol", dest="slope_tol", type=float, default=0.08)
    p.set_defaults(fn=_cmd_decay)

    p = sub.add_parser("predictor", help="predictor polynomial report")
    common(p)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--lemma1", default=None, metavar="N1,N2,...")
    p.set_defaults(fn=_cmd_predictor)
    return parser


def run(argv) -> int:
    _configure_logging()
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToeplitzSpectraError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc),
                "pass": False}
        print(json.dumps(diag), file=sys.stderr)
        out_path = getattr(args, "json_summary", None)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(diag, fh, indent=2)
                fh.write("\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
