"""Command line interface: one subcommand per operation, JSON on stdout,
diagnostics on stderr.

Exit codes: 0 success (verdicts like orthogonal=false are payload, not
failures), 2 usage or parse errors, 3 solver non-convergence flags or a
failed factorization.  stdout is strict JSON: non-finite numbers print as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .approx import best_approx, certify_best, strict_spectral
from .core import MatrixSubspace
from .errors import InvalidInputError, IoError, ParseError, UnsupportedError
from .lab import convergence_checks, counterexample_run, default_p_grid, emit_csv, p_sweep
from .norms import NormSpec, dual_norm, norm
from .ortho import (check_bj, check_eps_bj, check_parallel, subspace_certificate,
                    verify_certificate)
from .solvers import CERT_TOL
from .subdiff import descriptor, dir_derivative, sample_extreme, subdiff_pk


# ---------------------------------------------------------------------------
# input parsing


def _load_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError("cannot read %s: %s" % (path, exc))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: invalid JSON at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pair(v):
    return (isinstance(v, list) and len(v) == 2
            and _is_number(v[0]) and _is_number(v[1]))


def parse_matrix_obj(obj, where):
    """Matrix from the JSON object form {"rows", "cols", "data"}.

    data is row-major and may be a flat list of reals, a flat list of
    [re, im] pairs, or a nested list of rows whose cells are reals or pairs.
    A flat reading is preferred when data length equals rows*cols, so a 2x2
    nested [[1,2],[3,4]] is the real matrix, not two complex pairs.  Every
    entry must be finite: NaN, Infinity and integers beyond the float range are
    rejected.
    """
    try:
        out = _parse_entries(obj, where)
    except OverflowError:  # an integer literal too large for a float
        out = None
    if out is None or not np.all(np.isfinite(out)):
        raise ParseError("%s: entries must be finite (no NaN, Infinity or "
                         "out-of-range integers)" % where)
    return out


def _parse_entries(obj, where):
    if not isinstance(obj, dict):
        raise ParseError("%s: matrix must be a JSON object" % where)
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ParseError("%s: missing %r" % (where, key))
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise ParseError("%s: rows and cols must be positive integers" % where)
    if not isinstance(data, list):
        raise ParseError("%s: data must be a list" % where)
    out = np.zeros((rows, cols), dtype=complex)
    if len(data) == rows * cols and all(_is_number(v) for v in data):
        out.flat[:] = data
        return out
    if len(data) == rows * cols and all(_is_pair(v) for v in data):
        out.flat[:] = [complex(re, im) for re, im in data]
        return out
    if len(data) == rows:
        for i, row in enumerate(data):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError("%s: row %d must be a list of %d entries"
                                 % (where, i, cols))
            for j, cell in enumerate(row):
                if _is_number(cell):
                    out[i, j] = cell
                elif _is_pair(cell):
                    out[i, j] = complex(cell[0], cell[1])
                else:
                    raise ParseError("%s: entry (%d, %d) must be a number or "
                                     "an [re, im] pair" % (where, i, j))
        return out
    raise ParseError("%s: data length %d fits neither %dx%d flat nor nested rows"
                     % (where, len(data), rows, cols))


def parse_matrix_file(path):
    return parse_matrix_obj(_load_json(path), path)


def parse_subspace_file(path):
    obj = _load_json(path)
    if not isinstance(obj, dict) or "basis" not in obj:
        raise ParseError("%s: subspace file needs a \"basis\" list" % path)
    field = obj.get("field", "complex")
    if field not in ("real", "complex"):
        raise ParseError("%s: field must be \"real\" or \"complex\"" % path)
    basis = obj["basis"]
    if not isinstance(basis, list) or not basis:
        raise ParseError("%s: basis must be a non-empty list of matrices" % path)
    mats = [parse_matrix_obj(b, "%s basis[%d]" % (path, i))
            for i, b in enumerate(basis)]
    try:
        return MatrixSubspace(mats, field=field)
    except InvalidInputError as exc:
        raise ParseError("%s: %s" % (path, exc))


def parse_norm_spec(text):
    """kyfan:p=3,k=2 | spectral | schatten:p=4 | trace"""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ParseError("bad norm parameter %r in %r" % (item, text))
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise ParseError("bad numeric value in norm parameter %r" % item)
    try:
        if name == "spectral" and not params:
            return NormSpec.spectral()
        if name == "trace" and not params:
            return NormSpec.trace()
        if name == "schatten" and set(params) == {"p"}:
            return NormSpec.schatten(params["p"])
        if name == "kyfan" and set(params) == {"p", "k"}:
            if params["k"] != int(params["k"]):
                raise ParseError("k must be an integer in %r" % text)
            return NormSpec.kyfan(params["p"], int(params["k"]))
    except InvalidInputError as exc:
        raise ParseError(str(exc))
    raise ParseError("cannot parse norm spec %r (want kyfan:p=..,k=.. | "
                     "spectral | schatten:p=.. | trace)" % text)


# ---------------------------------------------------------------------------
# output encoding


def matrix_json(m):
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [[float(v.real), float(v.imag)] for v in m.flat]}


def _pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _coeff_list(c):
    c = np.atleast_1d(c)
    if np.iscomplexobj(c):
        return [_pair(v) for v in c]
    return [float(v) for v in c]


def _finite_or_null(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {key: _finite_or_null(x) for key, x in v.items()}
    if isinstance(v, list):
        return [_finite_or_null(x) for x in v]
    return v


def _emit(payload, args):
    print(json.dumps(_finite_or_null(payload), indent=args.json_indent, allow_nan=False))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_norm(args):
    a = parse_matrix_file(args.matrix)
    spec = parse_norm_spec(args.norm)
    _emit({"value": norm(a, spec)}, args)
    return 0


def _cmd_dual(args):
    a = parse_matrix_file(args.matrix)
    spec = parse_norm_spec(args.norm)
    _emit({"value": dual_norm(a, spec)}, args)
    return 0


def _cmd_subdiff(args):
    a = parse_matrix_file(args.matrix)
    spec = parse_norm_spec(args.norm)
    p, k = subdiff_pk(spec, min(a.shape))
    desc = descriptor(a, p, k)
    payload = {
        "norm_value": desc.norm_value,
        "p": p, "k": k,
        "at_zero": desc.at_zero,
        "singleton": desc.singleton,
        "rank_deficient": desc.rank_deficient,
    }
    if not desc.at_zero:
        payload["prefactor"] = matrix_json(desc.prefactor)
        payload["blocks"] = [{"value": float(v), "multiplicity": int(m)}
                             for v, m in zip(desc.blocks.values,
                                             desc.blocks.multiplicities)]
        payload["boundary"] = (None if desc.boundary is None else
                               {"block_index": desc.boundary.block_index,
                                "dim": desc.boundary.dim,
                                "required": desc.boundary.required,
                                "sigma": desc.boundary.value})
        if args.samples:
            gs = sample_extreme(desc, seed=args.seed, count=args.samples)
            payload["extreme_points"] = [matrix_json(g)
                                         for g in (gs if isinstance(gs, list) else [gs])]
        else:
            payload["extreme_points"] = []
    _emit(payload, args)
    return 0


def _operands(args, other):
    """(a, b, p, k): the --matrix file, the file other and (p, k) of --norm."""
    a, b = parse_matrix_file(args.matrix), parse_matrix_file(other)
    return (a, b) + subdiff_pk(parse_norm_spec(args.norm), min(a.shape))


def _cmd_dirderiv(args):
    a, x, p, k = _operands(args, args.direction)
    _emit({"value": dir_derivative(a, x, p, k)}, args)
    return 0


def _cmd_ortho_bj(args):
    a, b, p, k = _operands(args, args.other)
    res = check_bj(a, b, p, k, tol=args.tol, seed=args.seed)
    payload = {
        "orthogonal": res.orthogonal,
        "min_abs": res.min_abs,
        "witness": None if res.witness is None else matrix_json(res.witness),
        "witness_residual": res.witness_residual,
        "refuting_lambda": None if res.refuting_lambda is None else _pair(res.refuting_lambda),
        "refuting_norm": res.refuting_norm,
    }
    _emit(payload, args)
    return 0


def _cmd_ortho_eps(args):
    a, b, p, k = _operands(args, args.other)
    res = check_eps_bj(a, b, p, k, args.eps, mode=args.mode, tol=args.tol, seed=args.seed)
    _emit({"orthogonal": res.satisfied, "eps": args.eps, "mode": args.mode,
           "attained": res.attained, "threshold": res.threshold}, args)
    return 0


def _cmd_ortho_parallel(args):
    a, b, p, k = _operands(args, args.other)
    res = check_parallel(a, b, p, k, tol=args.tol, seed=args.seed)
    _emit({"parallel": res.parallel,
           "lambda": None if res.lam is None else _pair(res.lam),
           "max_abs": res.max_abs, "threshold": res.threshold,
           "additivity_gap": res.additivity_gap,
           "rank_deficient": res.rank_deficient}, args)
    return 0


def _cmd_ortho_subspace(args):
    a = parse_matrix_file(args.matrix)
    sub = parse_subspace_file(args.subspace)
    spec = parse_norm_spec(args.norm)
    p, k = subdiff_pk(spec, min(a.shape))
    cert = subspace_certificate(a, sub, p, k, tol=args.tol)
    ok, report = verify_certificate(a, sub, p, k, cert)
    _emit({"feasible": cert.feasible,
           "residual_eig": report["residual_eig"],
           "residual_perp": cert.residual_perp,
           "residual_lower": cert.residual_lower,
           "dual_norm_bound": report["dual_norm_bound"],
           "iterations": cert.iterations,
           "density_matrices": [matrix_json(t) for t in cert.T_list],
           "verified": ok,
           "report": report}, args)
    return 0


def _cmd_approx(args):
    a = parse_matrix_file(args.matrix)
    sub = parse_subspace_file(args.subspace)
    spec = parse_norm_spec(args.norm)
    res = best_approx(a, sub, spec, starts=args.starts, iters=args.max_iter,
                      seed=args.seed)
    payload = {
        "value": res.value,
        "coefficients": _coeff_list(res.coefficients),
        "y": matrix_json(res.y),
        "residual": matrix_json(res.residual),
        "sigma": [float(s) for s in res.sigma],
        "converged": res.converged,
        "flags": res.flags,
        "trace": res.trace,
    }
    if args.certify:
        cert = certify_best(a, sub, spec, res, cert_tol=args.cert_tol,
                            seed=args.seed)
        payload["certificate"] = {
            "found": cert.found,
            "residual_perp": cert.residual_perp,
            "f": None if cert.f_matrix is None else matrix_json(cert.f_matrix),
            "atoms_used": cert.atoms_used,
        }
    _emit(payload, args)
    return 3 if res.flags else 0


def _cmd_strict(args):
    a = parse_matrix_file(args.matrix)
    sub = parse_subspace_file(args.subspace)
    res = strict_spectral(a, sub, starts=args.starts, iters=args.max_iter,
                          seed=args.seed)
    _emit({
        "values": [float(v) for v in res.values],
        "sigma": [float(s) for s in res.sigma],
        "block_values": [float(v) for v in res.block_values],
        "multiplicities": [int(m) for m in res.multiplicities],
        "coefficients": _coeff_list(res.coefficients),
        "y": matrix_json(res.y),
        "stage_tol": res.stage_tol,
        "stages": [{"k": s.k, "value": s.value, "skipped": s.skipped,
                    "feasible": s.feasible, "active": s.active, "gap": s.gap}
                   for s in res.stage_log],
        "converged": res.converged,
        "flags": res.flags,
    }, args)
    return 3 if res.flags else 0


def _cmd_sweep(args):
    a = parse_matrix_file(args.matrix)
    sub = parse_subspace_file(args.subspace)
    strict = strict_spectral(a, sub, starts=args.starts, iters=args.max_iter,
                             seed=args.seed)
    records = p_sweep(a, sub, p_grid=default_p_grid(args.pmax), strict=strict,
                      starts=args.starts, iters=args.max_iter, seed=args.seed)
    report = convergence_checks(records, strict)
    if args.out:
        emit_csv(records, args.out)
    _emit({
        "records": [{"p": r.p, "coefficients": _coeff_list(r.coefficients),
                     "sigma": [float(s) for s in r.sigma],
                     "value_p": r.value_p, "value_inf": r.value_inf,
                     "dist_to_strict": r.dist_to_strict, "flags": r.flags}
                    for r in records],
        "strict_sigma": [float(s) for s in strict.sigma],
        "convergence": {
            "s1": report.s1,
            "second_block_checked": report.second_block_checked,
            "all_converged": report.all_converged,
            "checks": [{"index": c.index, "gap": c.gap, "slope": c.slope,
                        "verdict": c.verdict} for c in report.checks],
        },
    }, args)
    flagged = any(r.flags for r in records) or bool(strict.flags)
    return 3 if flagged else 0


def _cmd_counterexample(args):
    rep = counterexample_run(starts=args.starts, iters=args.max_iter,
                             seed=args.seed)
    if args.out:
        emit_csv(rep.per_p, args.out)
    _emit({
        "strict_sigma": [float(s) for s in rep.strict.sigma],
        "chain": [{"p": e.p,
                   "sigma_p": [float(s) for s in e.sigma_p],
                   "sigma_pk": [float(s) for s in e.sigma_pk],
                   "top2_inequality": e.top2_inequality,
                   "full_inequality": e.full_inequality,
                   "sigma3_conclusion": e.sigma3_conclusion}
                  for e in rep.chain],
        "uniqueness": [{"p": p, "predicted": pr.unique_predicted,
                        "spread": pr.spread, "violation": pr.violation,
                        "certified": pr.certified, "null_sigma": pr.null_sigma}
                       for p, pr in rep.uniqueness],
        "hypothetical_excluded": rep.hypothetical_excluded,
        "flags": rep.flags,
    }, args)
    return 3 if rep.flags else 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    top = argparse.ArgumentParser(
        prog="kyfan",
        description="Ky Fan p-k norms: norms, duals, subdifferentials, "
                    "Birkhoff-James orthogonality, best approximation, strict "
                    "spectral approximation, and p-sweep experiments.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(group, name, fn, summary, files=("matrix",), norm_flag=True, tol_default=None,
                solver=False):
        """A subcommand taking --<file> for each of files, and the shared flags."""
        sp = group.add_parser(name, help=summary)
        for flag in files:
            sp.add_argument("--" + flag, required=True)
        if solver:
            sp.add_argument("--starts", type=int, default=12,
                            help="multi-start count (default 12)")
            sp.add_argument("--max-iter", type=int, default=150,
                            help="subgradient iterations per start (default 150)")
        sp.add_argument("--seed", type=int, default=42,
                        help="seed for all randomized pieces (default 42)")
        if tol_default is not None:
            sp.add_argument("--tol", type=float, default=tol_default,
                            help="decision tolerance (default %g)" % tol_default)
        sp.add_argument("--json-indent", type=int, default=None,
                        help="pretty-print JSON with this indent")
        if norm_flag:
            sp.add_argument("--norm", required=True,
                            help="kyfan:p=..,k=.. | spectral | schatten:p=.. | trace")
        sp.set_defaults(fn=fn)
        return sp

    command(sub, "norm", _cmd_norm, "evaluate a norm")
    command(sub, "dual", _cmd_dual, "evaluate the dual norm")
    command(sub, "subdiff", _cmd_subdiff, "subdifferential descriptor (p >= 2)").add_argument(
        "--samples", type=int, default=3, help="number of sampled extreme points (default 3)")
    command(sub, "dirderiv", _cmd_dirderiv, "one-sided directional derivative",
            ("matrix", "direction"))

    ortho = sub.add_parser("ortho", help="Birkhoff-James orthogonality checks")
    osub = ortho.add_subparsers(dest="ortho_command", required=True)
    pair = ("matrix", "other")
    command(osub, "bj", _cmd_ortho_bj, "orthogonality to a matrix", pair, tol_default=1e-8)
    sp = command(osub, "eps", _cmd_ortho_eps, "approximate (epsilon) orthogonality", pair,
                 tol_default=1e-8)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--mode", choices=["complex", "real"], default="complex")
    command(osub, "parallel", _cmd_ortho_parallel, "norm parallelism", pair, tol_default=1e-8)
    with_sub = ("matrix", "subspace")
    command(osub, "subspace", _cmd_ortho_subspace,
            "orthogonality to a subspace with a density-matrix certificate (the "
            "subgradient nearest to the complement; residual_lower > tol proves there "
            "is none)", with_sub, tol_default=1e-9)

    sp = command(sub, "approx", _cmd_approx, "best approximation from a subspace", with_sub,
                 solver=True)
    sp.add_argument("--certify", action="store_true",
                    help="attach a subdifferential optimality certificate")
    sp.add_argument("--cert-tol", type=float, default=CERT_TOL,
                    help="certificate projection tolerance (default 1e-7)")
    command(sub, "strict", _cmd_strict, "strict spectral approximation", with_sub,
            norm_flag=False, solver=True)
    sp = command(sub, "sweep", _cmd_sweep, "Schatten-p sweep toward the strict approximant",
                 with_sub, norm_flag=False, solver=True)
    sp.add_argument("--pmax", type=float, default=1024.0,
                    help="largest p in the geometric grid (default 1024)")
    sp.add_argument("--out", default=None, help="write records as CSV here")
    command(sub, "counterexample", _cmd_counterexample, "run the fixed 3x3 instance", (),
            norm_flag=False, solver=True).add_argument(
        "--out", default=None, help="write sweep records as CSV here")

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, InvalidInputError, UnsupportedError, IoError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print("error: linear algebra failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
