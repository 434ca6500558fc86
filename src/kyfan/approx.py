"""Best approximation from a matrix subspace, optimality certificates, and the
nested strict-spectral scheme.

bestApprox minimizes ||A - Y|| over Y in the subspace for any supported norm;
certifyBest searches the subdifferential at the residual for an element
orthogonal to the subspace (zero projection), which is the exact first-order
optimality certificate for a convex problem.  strictSpectral minimizes the
partial sums (sigma_1, sigma_1^2+sigma_2^2, ...) of the residual
lexicographically via nested sublevel-constrained stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import as_matrix, spectrum_blocks
from .errors import InvalidInputError, UnsupportedError
from .norms import NormSpec, norm
from .solvers import (Objective, coeffs_of_x, grid_refine, multistart_minimize,
                      polish, polyak_descent, x_of_coeffs)
from .subdiff import canonical_extreme, descriptor, pairing_range_parts, sample_extreme


@dataclass
class ApproximationResult:
    coefficients: np.ndarray
    y: np.ndarray
    value: float
    residual: np.ndarray
    sigma: np.ndarray
    spec: NormSpec
    converged: bool
    trace: dict
    flags: list
    certificate: np.ndarray | None = None


def best_approx(a, subspace, spec, starts=50, iters=150, seed=0,
                grid_dim_limit=2, extra_coeffs=None):
    """Minimize ||A - Y||_spec over Y in the subspace.

    Multi-start subgradient descent with smooth polish; subspaces of dimension
    <= grid_dim_limit additionally get a coarse-to-fine grid pass, which makes
    the low-dimensional solves certifiable to near machine precision.
    extra_coeffs seeds additional starts (warm starting across a parameter sweep).
    """
    a = as_matrix(a)
    if a.shape != subspace.shape:
        raise InvalidInputError("matrix shape %r does not match subspace shape %r"
                                % (a.shape, subspace.shape))
    if not subspace.dim:
        raise InvalidInputError("cannot approximate from an empty subspace")
    obj = Objective(a, subspace, spec)
    extra = []
    for c in (extra_coeffs or []):
        extra.append(x_of_coeffs(np.asarray(c), subspace))
    out = multistart_minimize(obj, starts=starts, iters=iters, seed=seed,
                              grid_dim_limit=grid_dim_limit, extra_starts=extra)
    coeffs = coeffs_of_x(out.x, subspace)
    y = subspace.combine(coeffs)
    residual = a - y
    sigma = np.linalg.svd(residual, compute_uv=False)
    flags = []
    if not out.converged:
        flags.append("unconverged")
    trace = {"starts": out.starts_run, "iterations": out.iterations,
             "start_gap": out.gap, "start_values": out.start_values[:8]}
    return ApproximationResult(coefficients=coeffs, y=y, value=out.value,
                               residual=residual, sigma=sigma, spec=spec,
                               converged=out.converged, trace=trace, flags=flags)


def _cert_face(spec, n0):
    p, k = spec.resolve(n0)
    if p is None:
        return 2.0, 1  # the norm degenerates to sigma_1, certified via (2, 1)
    if p < 2:
        raise UnsupportedError("optimality certificates need p >= 2 (or the spectral norm)")
    return p, k


def _extreme_with(desc, cmat):
    proj = desc.fixed_projector.copy()
    if desc.boundary is not None:
        y = desc.boundary.basis @ cmat
        proj = proj + y @ y.conj().T
    return desc.prefactor @ proj


def _simplex_qp(vecs):
    """min ||sum w_i v_i||^2 over the probability simplex; returns (w, value)."""
    v = np.stack(vecs, axis=1)
    q = np.real(v.conj().T @ v)
    m = q.shape[0]
    if m == 1:
        return np.array([1.0]), float(q[0, 0])
    w0 = np.full(m, 1.0 / m)
    res = minimize(lambda w: float(w @ q @ w), w0, jac=lambda w: 2.0 * (q @ w),
                   method="SLSQP", bounds=[(0.0, 1.0)] * m,
                   constraints=[{"type": "eq", "fun": lambda w: np.sum(w) - 1.0,
                                 "jac": lambda w: np.ones(m)}],
                   options={"maxiter": 200, "ftol": 1e-16})
    w = np.clip(res.x, 0.0, None)
    w = w / np.sum(w)
    return w, float(max(w @ q @ w, 0.0))


@dataclass
class CertificateResult:
    found: bool
    f_matrix: np.ndarray | None
    residual_perp: float
    weights: np.ndarray
    atoms_used: int
    pairing: float
    singleton: bool


def certify_best(a, subspace, spec, result, cert_tol=1e-7, max_atoms=40, seed=0):
    """Search the subdifferential at R = A - Y for an element with zero
    projection onto the subspace.

    Finding one proves Y is a global minimizer (convexity); residual_perp is
    the projection norm actually reached.  Fully corrective conditional
    gradient over the extreme points: the linear subproblem over the boundary
    face is an exact eigenvalue computation, and the convex recombination over
    the collected atoms is a tiny simplex QP.  result may be an
    ApproximationResult (the certificate is attached on success) or a matrix Y.
    """
    a = as_matrix(a)
    attach = result if isinstance(result, ApproximationResult) else None
    y = as_matrix(attach.y if attach is not None else result)
    r = a - y
    n0 = min(a.shape)
    p, k = _cert_face(spec, n0)
    if not subspace.dim:
        return CertificateResult(True, None, 0.0, np.zeros(0), 0, norm(r, spec), True)
    if norm(r, spec) == 0.0:
        # zero residual: Y = A attains the smallest conceivable value
        return CertificateResult(True, None, 0.0, np.zeros(0), 0, 0.0, True)

    desc = descriptor(r, p, k)

    def proj_coeffs(g):
        return subspace.coefficients(g)

    atoms = [canonical_extreme(desc)]
    if desc.boundary is not None:
        atoms += sample_extreme(desc, seed=seed, count=6)
    vecs = [proj_coeffs(g) for g in atoms]

    w, val = _simplex_qp(vecs)
    for _ in range(max_atoms):
        if np.sqrt(val) <= cert_tol or desc.boundary is None:
            break
        # steepest atom: minimize Re tr(G* D) with D the current projection
        d_coeffs = np.stack(vecs, axis=1) @ w
        d_mat = subspace.combine(d_coeffs)
        _, mb = pairing_range_parts(desc, d_mat)
        h = (mb + mb.conj().T) / 2.0
        ew, ev = np.linalg.eigh(h)
        cmat = ev[:, : desc.boundary.required]  # ascending order: bottom eigenvectors
        g_new = _extreme_with(desc, cmat)
        v_new = proj_coeffs(g_new)
        # conditional-gradient gap: no atom improves once the linear slope is flat
        slope = float(np.real(np.vdot(d_coeffs, v_new)))
        if slope >= val - cert_tol ** 2:
            break
        vecs.append(v_new)
        atoms.append(g_new)
        w, val = _simplex_qp(vecs)

    f = sum(wi * g for wi, g in zip(w, atoms))
    resid = float(np.sqrt(max(val, 0.0)))
    pairing = float(np.real(np.trace(f.conj().T @ r)))
    out = CertificateResult(found=resid <= cert_tol, f_matrix=f, residual_perp=resid,
                            weights=w, atoms_used=len(atoms), pairing=pairing,
                            singleton=desc.singleton)
    if attach is not None and out.found:
        attach.certificate = f
    return out


@dataclass
class UniquenessProbe:
    unique_predicted: bool
    rank_x: int
    spread: float
    violation: bool
    best_value: float
    alphas: list
    values: list


def unique_1d_probe(a, x, p, k, trials=12, seed=0):
    """Probe uniqueness of the best (p, k)-approximation from span{X}.

    Predicted unique when rank(X) > n - k (columns n); empirically, minimizers
    found from scattered starts over the complex plane are collected and their
    spread reported.  A plateau of minimizers shows up as a large spread at
    equal values; violation is set when a predicted-unique instance spreads.
    """
    a = as_matrix(a)
    x = as_matrix(x)
    if a.shape != x.shape:
        raise InvalidInputError("shape mismatch")
    sx = np.linalg.svd(x, compute_uv=False)
    rank_x = int(np.sum(sx > 1e-12 * max(sx[0], 1.0))) if sx.size else 0
    if rank_x == 0:
        raise InvalidInputError("X must be nonzero")
    spec = NormSpec.kyfan(p, k)
    n0 = min(a.shape)
    _, k_eff = spec.resolve(n0)
    predicted = rank_x > a.shape[1] - k_eff

    from .core import MatrixSubspace
    sub = MatrixSubspace([x], field="complex")
    obj = Objective(a, sub, spec)
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.abs(sub.coefficients(a)[0]))
    starts = [np.zeros(2), x_of_coeffs(sub.coefficients(a), sub)]
    while len(starts) < trials:
        starts.append(scale * rng.standard_normal(2))

    endpoints = []
    for x0 in starts:
        if obj.smooth:
            x1, _ = polyak_descent(obj.value_and_grad, x0, iters=120)
        else:
            x1 = x0
        x2, f2 = polish(obj.value, obj.value_and_grad if obj.smooth else None, x1)
        endpoints.append((f2, x2))
    best = min(f for f, _ in endpoints)
    keep = [coeffs_of_x(xv, sub)[0] for f, xv in endpoints
            if f <= best + 1e-8 * (1.0 + abs(best))]
    spread = 0.0
    for i in range(len(keep)):
        for j in range(i + 1, len(keep)):
            spread = max(spread, abs(keep[i] - keep[j]))
    return UniquenessProbe(unique_predicted=predicted, rank_x=rank_x,
                           spread=float(spread),
                           violation=bool(predicted and spread > 1e-5),
                           best_value=float(best),
                           alphas=keep, values=sorted(f for f, _ in endpoints))


# ---------------------------------------------------------------------------
# strict spectral approximation


def _partial_sums(obj, x):
    """f_j = (sum_{i<=j} sigma_i^2)^(1/2) of the residual at x (x may be a stack)."""
    s = np.linalg.svd(obj.residual(x), compute_uv=False)
    return np.sqrt(np.cumsum(s * s, axis=-1))


def _penalty(obj, k, barr, mu):
    """Exact penalty f_k + mu * sum_j max(0, f_j - barr_j) on the partial sums.

    Returns (value, value_and_grad, value_many).  value_and_grad works from one
    SVD R = U diag(sigma) V*: the gradient of f_j is U_j diag(sigma_i/f_j) V_j*,
    so sum_j w_j grad f_j = U diag(sigma_i sum_{j>=i} w_j/f_j) V* with w_k = 1
    and w_j = mu on the violated earlier stages.
    """
    nb = len(barr)

    def value_many(xs):
        f = _partial_sums(obj, xs)
        return f[..., k - 1] + mu * np.maximum(0.0, f[..., :nb] - barr).sum(axis=-1)

    def value(x):
        return float(value_many(x))

    def value_and_grad(x):
        u, s, vh = np.linalg.svd(obj.residual(x), full_matrices=False)
        f = np.sqrt(np.cumsum(s * s))
        val = float(f[k - 1] + mu * np.maximum(0.0, f[:nb] - barr).sum())
        if s[0] == 0.0:
            return val, np.zeros(x.size)
        w = np.zeros(s.size)
        w[:nb] = np.where(f[:nb] > barr, mu, 0.0)
        w[k - 1] = 1.0
        coef = s * np.cumsum((w / f)[::-1])[::-1]
        return val, obj.pullback((u * coef) @ vh)

    return value, value_and_grad, value_many


@dataclass
class StageInfo:
    k: int
    value: float
    skipped: bool
    feasible: bool
    converged: bool
    mu: float
    rounds: int
    active: int  # how many earlier sublevel constraints are binding


@dataclass
class StrictApproxResult:
    coefficients: np.ndarray
    y: np.ndarray
    residual: np.ndarray
    sigma: np.ndarray
    block_values: np.ndarray
    multiplicities: np.ndarray
    values: list
    stage_tol: float
    stage_log: list
    converged: bool
    flags: list


def strict_spectral(a, subspace, starts=12, iters=150, seed=0,
                    stage_tol=None, grid_dim_limit=2):
    """Nested lexicographic minimization of the residual partial sums.

    Stage k minimizes f_k(Y) = (sum_{i<=k} sigma_i(A-Y)^2)^(1/2) subject to
    f_j <= m_j + stage_tol for all earlier stages j, via an exact penalty with
    adaptive weight.  Stages whose index falls inside a multiplicity block of
    the current residual spectrum are forced by the earlier constraints and
    are recorded without a fresh solve.
    """
    a = as_matrix(a)
    if a.shape != subspace.shape:
        raise InvalidInputError("matrix shape %r does not match subspace shape %r"
                                % (a.shape, subspace.shape))
    if not subspace.dim:
        raise InvalidInputError("cannot approximate from an empty subspace")
    obj = Objective(a, subspace, NormSpec.kyfan(2, 1))
    n0 = min(a.shape)
    log = []
    bounds = []  # m_j + stage_tol per recorded stage

    # stage 1 is an unconstrained spectral-norm fit
    out1 = multistart_minimize(obj, starts=starts, iters=iters, seed=seed,
                               grid_dim_limit=grid_dim_limit)
    x_cur = out1.x
    m1 = out1.value
    if stage_tol is None:
        stage_tol = 1e-7 * (1.0 + m1)
    feas_slack = 1e-9 * (1.0 + m1)
    values = [m1]
    bounds.append(m1 + stage_tol)
    log.append(StageInfo(k=1, value=m1, skipped=False, feasible=True,
                         converged=out1.converged, mu=0.0, rounds=0, active=0))

    k = 2
    while k <= n0:
        sig = np.linalg.svd(obj.residual(x_cur), compute_uv=False)
        blocks = spectrum_blocks(sig)
        if blocks.block_of(k) == blocks.block_of(k - 1):
            # inside the block opened at an earlier stage: constrained to equality
            f_here = np.sqrt(np.cumsum(sig * sig))[k - 1]
            values.append(f_here)
            bounds.append(f_here + stage_tol)
            log.append(StageInfo(k=k, value=float(f_here), skipped=True, feasible=True,
                                 converged=True, mu=0.0, rounds=0, active=k - 1))
            k += 1
            continue

        x_cur, info = _solve_stage(obj, k, bounds, x_cur, starts=max(4, starts // 2),
                                   iters=iters, seed=seed + 101 * k,
                                   feas_slack=feas_slack, stage_tol=stage_tol,
                                   grid_dim_limit=grid_dim_limit)
        values.append(info.value)
        bounds.append(info.value + stage_tol)
        log.append(info)
        k += 1

    if n0 > 1:
        # the sublevel relaxation lets the last stage drift up to stage_tol off
        # the earlier optima; pull the final point back onto them
        x_cur = _tighten_final(obj, x_cur, values, stage_tol, grid_dim_limit)

    coeffs = coeffs_of_x(x_cur, subspace)
    y = subspace.combine(coeffs) if subspace.dim else np.zeros_like(a)
    residual = a - y
    sigma = np.linalg.svd(residual, compute_uv=False)
    blocks = spectrum_blocks(sigma)
    flags = []
    if any(not st.feasible for st in log):
        flags.append("stage_infeasible")
    if any(not st.converged for st in log):
        flags.append("stage_unconverged")
    return StrictApproxResult(
        coefficients=coeffs, y=y, residual=residual, sigma=sigma,
        block_values=blocks.values, multiplicities=blocks.multiplicities,
        values=values, stage_tol=stage_tol, stage_log=log,
        converged=not flags, flags=flags)


def _solve_stage(obj, k, bounds, x_warm, starts, iters, seed, feas_slack, stage_tol,
                 grid_dim_limit):
    """Penalized solve of stage k: f_k + mu * sum max(0, f_j - bound_j)."""
    barr = np.asarray(bounds)
    rng = np.random.default_rng(seed)
    d = x_warm.size
    scale = 1.0 + np.linalg.norm(x_warm)
    mu = 10.0 * (1.0 + barr[0])
    best_x = x_warm.copy()
    rounds = 0
    for _ in range(3):
        rounds += 1
        value, value_and_grad, value_many = _penalty(obj, k, barr, mu)
        cands = [best_x] + [best_x + scale * rng.standard_normal(d)
                            for _ in range(starts - 1)]
        finals = []
        for x0 in cands:
            x1, _ = polyak_descent(value_and_grad, x0, iters=iters)
            finals.append((value(x1), x1))
        finals.sort(key=lambda t: t[0])
        fb, xb = finals[0]
        if obj.subspace.dim and obj.subspace.dim <= grid_dim_limit:
            halfwidth = 2.0 * (1.0 + np.linalg.norm(xb))
            gx, gf = grid_refine(value_many, xb, halfwidth)
            if gf < fb:
                fb, xb = gf, gx
        xb, fb = polish(value, None, xb)
        best_x = xb
        f = _partial_sums(obj, best_x)
        viol = float(np.max(np.maximum(0.0, f[: len(barr)] - barr)))
        if viol <= feas_slack:
            break
        mu *= 10.0
    f = _partial_sums(obj, best_x)
    viol = float(np.max(np.maximum(0.0, f[: len(barr)] - barr)))
    feasible = viol <= feas_slack
    active = int(np.sum(f[: len(barr)] >= barr - 2.0 * stage_tol))
    return best_x, StageInfo(k=k, value=float(f[k - 1]), skipped=False,
                             feasible=feasible, converged=feasible,
                             mu=mu, rounds=rounds, active=active)


def _tighten_final(obj, x, values, stage_tol, grid_dim_limit):
    """Local re-solve of the last stage with near-equality stage bounds."""
    n0 = len(values)
    vals = np.asarray(values)
    eps = 1e-10 * (1.0 + vals[0])
    barr = vals[:-1] + eps
    value, _, value_many = _penalty(obj, n0, barr, 1e6 * (1.0 + vals[0]))

    def tight_viol(z):
        f = _partial_sums(obj, z)
        return float(np.max(np.maximum(0.0, f[: n0 - 1] - barr), initial=0.0))

    xb, _ = polish(value, None, x)
    if obj.subspace.dim <= grid_dim_limit:
        hw = max(100.0 * stage_tol, 1e-6) * (1.0 + np.linalg.norm(xb))
        gx, gv = grid_refine(value_many, xb, hw, levels=10)
        if gv < value(xb):
            xb = gx
        xb, _ = polish(value, None, xb)
    return xb if tight_viol(xb) < tight_viol(x) else x


def lex_compare(sa, sb, tol=1e-9):
    """Lexicographic comparison of two equal-length real vectors.

    Returns "Less", "Equal" or "Greater"; entries within tol are ties.
    """
    sa = np.atleast_1d(np.asarray(sa, dtype=float))
    sb = np.atleast_1d(np.asarray(sb, dtype=float))
    if sa.size != sb.size:
        raise InvalidInputError("lexicographic comparison needs equal lengths")
    for i in range(sa.size):
        if sa[i] < sb[i] - tol:
            return "Less"
        if sa[i] > sb[i] + tol:
            return "Greater"
    return "Equal"


@dataclass
class PkCheckReport:
    applicable: bool
    passed: bool
    max_deviation: float
    gap_tol: float
    sigmas: list
    values: list


def pk_singular_value_check(a, subspace, p, k, trials=10, gap_tol=1e-6,
                            seed=0, starts=10, iters=120):
    """Re-solve the (p, k) approximation from independent seeds and test that
    sigma_1..sigma_k of the residual agree whenever some run shows a gap
    sigma_k > sigma_{k+1} + gap_tol (all minimizers then share those values)."""
    a = as_matrix(a)
    spec = NormSpec.kyfan(p, k)
    n0 = min(a.shape)
    _, k_eff = spec.resolve(n0)
    if not subspace.dim:
        # no freedom: the one residual is A itself
        s = np.linalg.svd(a, compute_uv=False)
        nxt = s[k_eff] if k_eff < s.size else 0.0
        return PkCheckReport(applicable=bool(s[k_eff - 1] > nxt + gap_tol), passed=True,
                             max_deviation=0.0, gap_tol=gap_tol, sigmas=[s],
                             values=[float(norm(a, spec))])
    sigmas = []
    vals = []
    for t in range(trials):
        r = best_approx(a, subspace, spec, starts=starts, iters=iters, seed=seed + 977 * t)
        sigmas.append(r.sigma)
        vals.append(r.value)
    applicable = False
    for s in sigmas:
        nxt = s[k_eff] if k_eff < s.size else 0.0
        if s[k_eff - 1] > nxt + gap_tol:
            applicable = True
            break
    dev = 0.0
    for i in range(len(sigmas)):
        for j in range(i + 1, len(sigmas)):
            dev = max(dev, float(np.max(np.abs(sigmas[i][:k_eff] - sigmas[j][:k_eff]))))
    passed = (not applicable) or dev <= 1e-6
    return PkCheckReport(applicable=applicable, passed=passed, max_deviation=dev,
                         gap_tol=gap_tol, sigmas=sigmas, values=vals)
