"""Experiment harness: p-sweeps of Schatten-p approximants against the strict
spectral approximant, trend-based convergence verdicts, and the fixed 3x3
instance showing that the (p,2)-approximant cannot beat sigma_3 of the
Schatten-p approximant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .approx import StrictApproxResult, best_approx, strict_spectral, unique_1d_probe
from .core import MatrixSubspace, matrix_in
from .errors import InvalidInputError, IoError
from .norms import NormSpec, norm_of_sigma


@dataclass
class SweepRecord:
    p: float
    coefficients: np.ndarray
    sigma: np.ndarray
    value_p: float      # ||R_p|| under the swept norm
    value_inf: float    # sigma_1(R_p)
    dist_to_strict: float
    flags: list


def default_p_grid(p_max=1024.0):
    """The powers of two from 2 up to p_max, which must be finite."""
    if not np.isfinite(p_max):
        raise InvalidInputError("p_max must be finite, got %r" % (p_max,))
    grid = []
    p = 2.0
    while p <= p_max:
        grid.append(p)
        p *= 2.0
    return grid


def p_sweep(a, subspace, p_grid=None, strict=None, starts=12, iters=150,
            seed=0, spec_of_p=NormSpec.schatten):
    """Best approximation under spec_of_p(p) for each p in an increasing grid.

    Each p gets one best_approx solve (starts and iters as given, seed + 31 i
    at the i-th p), warm-started from the strict approximant and the previous
    p's coefficients.  The solve proves its own optimality by a duality-gap
    bracket, and its record carries that solve's flags ("unconverged" while
    the bracket is open).
    """
    a = matrix_in(a, subspace)
    if p_grid is None:
        p_grid = default_p_grid()
    p_grid = [float(p) for p in p_grid]
    if any(q <= p for p, q in zip(p_grid, p_grid[1:])) or not p_grid:
        raise InvalidInputError("p grid must be strictly increasing and non-empty")
    if p_grid[0] < 2.0:
        raise InvalidInputError("p grid must start at p >= 2")
    if strict is None:
        strict = strict_spectral(a, subspace, starts=starts, iters=iters, seed=seed)
    records = []
    prev = None
    for i, p in enumerate(p_grid):
        extra = [strict.coefficients] + ([prev] if prev is not None else [])
        res = best_approx(a, subspace, spec_of_p(p), starts=starts, iters=iters,
                          seed=seed + 31 * i, extra_coeffs=extra)
        prev = res.coefficients
        records.append(SweepRecord(
            p=p, coefficients=res.coefficients, sigma=res.sigma,
            value_p=res.value, value_inf=float(res.sigma[0]),
            dist_to_strict=float(np.linalg.norm(res.y - strict.y)),
            flags=list(res.flags)))
    return records


@dataclass
class IndexCheck:
    index: int          # 1-based singular value index
    gap: float          # |sigma_i(R_pmax) - sigma_i(R_st)|
    slope: float        # trend of the gap over the last window records
    verdict: str        # ConvergesWithinTol | Inconclusive | Diverging


@dataclass
class ConvergenceReport:
    checks: list
    s1: int
    second_block_checked: bool
    all_converged: bool


def convergence_checks(sweep, strict, tol=0.02, window=5):
    """Trend verdicts for sigma_i(R_p) -> sigma_i(R_st).

    The first block (i = 1..s_1) is always checked; the second block only when
    s_1 = 1, which is when its convergence is actually guaranteed.  Verdicts
    are evidence, not proofs: a gap above tol with no clear growth is
    Inconclusive, never silently accepted, and so is a gap within a tol
    below strict.stage_tol, the accuracy the strict reference guarantees.
    """
    if not sweep:
        raise InvalidInputError("empty sweep")
    mults = np.asarray(strict.multiplicities, dtype=int)
    s1 = int(mults[0])
    indices = list(range(1, s1 + 1))
    second = s1 == 1 and mults.size > 1
    if second:
        indices += list(range(s1 + 1, s1 + int(mults[1]) + 1))
    checks = []
    for i in indices:
        gaps = np.array([abs(float(r.sigma[i - 1]) - float(strict.sigma[i - 1]))
                         for r in sweep])
        gap = float(gaps[-1])
        if gaps.size >= 2:
            w = gaps[-min(window, gaps.size):]
            slope = float(np.polyfit(np.arange(w.size), w, 1)[0])
        else:
            slope = 0.0
        if gaps.size < 2:
            verdict = "Inconclusive"
        elif gap <= tol:
            verdict = "ConvergesWithinTol" if tol >= strict.stage_tol else "Inconclusive"
        elif slope > 1e-6 * (1.0 + gap):
            verdict = "Diverging"
        else:
            verdict = "Inconclusive"
        checks.append(IndexCheck(index=i, gap=gap, slope=slope, verdict=verdict))
    return ConvergenceReport(
        checks=checks, s1=s1, second_block_checked=second,
        all_converged=all(c.verdict == "ConvergesWithinTol" for c in checks))


# ---------------------------------------------------------------------------
# the fixed 3x3 instance


def counterexample_instance():
    a = np.diag([0.5, 2.0, 0.0]).astype(complex)
    x = np.diag([0.0, 1.0, 1.0]).astype(complex)
    return a, x


@dataclass
class ChainEntry:
    p: float
    sigma_p: np.ndarray        # residual spectrum of the Schatten-p approximant
    sigma_pk: np.ndarray       # residual spectrum of the (p,2) approximant
    top2_inequality: bool      # ||R^(p,2)||_(p,2) <= ||R_p||_(p,2) + tol
    full_inequality: bool      # ||R_p||_p <= ||R^(p,2)||_p + tol
    sigma3_conclusion: bool    # sigma_3(R_p) <= sigma_3(R^(p,2)) + 1e-8


@dataclass
class CounterexampleReport:
    a: np.ndarray
    x: np.ndarray
    strict: StrictApproxResult
    per_p: list                # SweepRecords of the Schatten-p solves
    pk_records: list           # SweepRecords of the (p,2) solves
    uniqueness: list           # (p, UniquenessProbe) pairs for the (p,2) problems
    chain: list                # ChainEntry per p
    hypothetical_excluded: bool
    flags: list


def counterexample_run(p_list=(2.0, 4.0, 8.0, 16.0), starts=12, iters=150, seed=0):
    """Reproduce the fixed-instance argument.

    For A = diag(1/2, 2, 0) and M = span{diag(0,1,1)} the (p,2)-approximant is
    unique (rank probe), and at every p the two minimality inequalities force
    sigma_3(R_p) <= sigma_3(R^(p,2)): no (p,2)-minimizer can have a third
    singular value strictly below the Schatten-p residual's, which excludes
    the hypothetical strictly-better competitor.
    """
    a, x = counterexample_instance()
    sub = MatrixSubspace([x], field="complex")
    strict = strict_spectral(a, sub, starts=starts, iters=iters, seed=seed)
    per_p = p_sweep(a, sub, p_grid=p_list, strict=strict, starts=starts,
                    iters=iters, seed=seed)
    pk_records = p_sweep(a, sub, p_grid=p_list, strict=strict, starts=starts,
                         iters=iters, seed=seed + 1,
                         spec_of_p=lambda p: NormSpec.kyfan(p, 2))
    chain = []
    uniqueness = []
    flags = []
    for i, rec in enumerate(per_p):
        p = rec.p
        rp_sig = rec.sigma
        rpk_sig = pk_records[i].sigma
        spec_pk = NormSpec.kyfan(p, 2)
        spec_full = NormSpec.schatten(p)
        tol = 1e-8
        top2 = norm_of_sigma(rpk_sig, spec_pk) <= norm_of_sigma(rp_sig, spec_pk) + tol
        full = norm_of_sigma(rp_sig, spec_full) <= norm_of_sigma(rpk_sig, spec_full) + tol
        concl = rp_sig[2] <= rpk_sig[2] + 1e-8
        chain.append(ChainEntry(p=p, sigma_p=rp_sig, sigma_pk=rpk_sig,
                                top2_inequality=bool(top2), full_inequality=bool(full),
                                sigma3_conclusion=bool(concl)))
        uniqueness.append((p, unique_1d_probe(a, x, p, 2, seed=seed + 7 * i)))
        flags += ["p=%g:%s" % (p, f) for f in rec.flags + pk_records[i].flags]
    excluded = all(c.sigma3_conclusion for c in chain)
    return CounterexampleReport(a=a, x=x, strict=strict, per_p=per_p,
                                pk_records=pk_records, uniqueness=uniqueness,
                                chain=chain, hypothetical_excluded=excluded,
                                flags=flags)


# ---------------------------------------------------------------------------
# CSV output


def _fmt(v):
    return "%.17g" % float(v)


def emit_csv(records, path):
    """One row per sweep record; RFC 4180 quoting, %.17g fields.

    Columns: p, coefficients (c<i> for real spans, c<i>_re/c<i>_im for
    complex), sigma_1..sigma_n0, value_p, value_inf, dist_to_strict.
    """
    header = ["p"]
    rows = []
    if records:
        c0 = np.atleast_1d(records[0].coefficients)
        cplx = np.iscomplexobj(c0)
        for j in range(c0.size):
            if cplx:
                header += ["c%d_re" % (j + 1), "c%d_im" % (j + 1)]
            else:
                header.append("c%d" % (j + 1))
        header += ["sigma_%d" % (i + 1) for i in range(records[0].sigma.size)]
    header += ["value_p", "value_inf", "dist_to_strict"]
    for r in records:
        row = [_fmt(r.p)]
        cs = np.atleast_1d(r.coefficients)
        for c in cs:
            if np.iscomplexobj(cs):
                row += [_fmt(c.real), _fmt(c.imag)]
            else:
                row.append(_fmt(c))
        row += [_fmt(s) for s in r.sigma]
        row += [_fmt(r.value_p), _fmt(r.value_inf), _fmt(r.dist_to_strict)]
        rows.append(row)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)   # excel dialect: CRLF terminators, minimal quoting
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError("cannot write CSV to %s: %s" % (path, exc))
