"""Best approximation from a matrix subspace, optimality certificates, and the
strict spectral approximant.

best_approx minimizes ||A - Y|| over Y in the subspace for any supported norm;
certify_best searches the subdifferential at the residual for an element
orthogonal to the subspace (zero projection), which is the exact first-order
optimality certificate for a convex problem; pin_map turns it into linear
equations every minimizer satisfies, which decide uniqueness
(unique_1d_probe) and the shared top singular values
(pk_singular_value_check).  strict_spectral builds the
residual whose singular values are lexicographically minimal (Zietak's strict
spectral approximant) the way Rice builds the strict Chebyshev approximant:
a certified sigma_1 solve fixes the block of singular values its certificate
pins, and the rest is solved again on the compression of the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MatrixSubspace, matrix_in, matrix_pair, negligible, spectrum_blocks, tolerance
from .errors import InvalidInputError
from .norms import NormSpec, norm
from .solvers import CERT_TOL, FACE_ITER, GAP_TOL, Objective, multistart_minimize
from .subdiff import descriptor, face_min_norm, subdiff_pk


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


def best_approx(a, subspace, spec, starts=50, iters=150, seed=0, extra_coeffs=None):
    """Minimize ||A - Y||_spec over Y in the subspace.

    The start of least value (extra_coeffs included) is polished first, with
    kink Newton steps for the sigma_1 norms, and stops at the first certifiable
    duality-gap bracket: trace["duality_gap"] is its width, trace["bound"] the
    bound that closed it ("hoelder" or "face"), trace["iterations"] the Polyak
    steps run (0 then) and trace["evaluations"] the residuals factorized.
    Only while it stays open do starts and iters act: multi-start subgradient
    descent, the polish of the 3 best finals with Nelder-Mead, and for
    subspaces of dimension <= solvers.GRID_DIM_LIMIT a coarse-to-fine grid pass.
    extra_coeffs seeds additional starts (warm starting across a parameter sweep).
    """
    a = matrix_in(a, subspace)
    if not subspace.dim:
        raise InvalidInputError("cannot approximate from an empty subspace")
    obj = Objective(a, subspace, spec)
    extra = [subspace.real_coordinates(subspace.combine(c)) for c in (extra_coeffs or [])]
    out = multistart_minimize(obj, starts=starts, iters=iters, seed=seed, extra_starts=extra)
    coeffs = subspace.coefficients((out.x @ subspace.rows).reshape(a.shape))
    y = subspace.combine(coeffs)
    residual = a - y
    sigma = np.linalg.svd(residual, compute_uv=False)
    flags = []
    if not out.converged:
        flags.append("unconverged")
    trace = {"starts": out.starts_run, "iterations": out.iterations,
             "start_gap": out.gap, "start_values": out.start_values[:8],
             "duality_gap": out.duality_gap, "bound": out.bound, "evaluations": obj.evaluations}
    return ApproximationResult(coefficients=coeffs, y=y, value=out.value,
                               residual=residual, sigma=sigma, spec=spec,
                               converged=out.converged, trace=trace, flags=flags)


@dataclass
class CertificateResult:
    found: bool
    f_matrix: np.ndarray | None
    residual_perp: float
    weights: np.ndarray
    atoms_used: int
    pairing: float
    singleton: bool
    residual_lower: float     # no subgradient at R reaches below it


def certify_best(a, subspace, spec, result, cert_tol=CERT_TOL, seed=0):
    """Search the subdifferential at R = A - Y for an element with zero
    projection onto the subspace.

    Finding one proves Y is a global minimizer (convexity); residual_perp is
    the projection norm actually reached, and residual_lower > cert_tol proves
    that none exists.  The search is face_min_norm at R with FACE_ITER oracle
    calls, the budget of the solvers' face bound; weights are the convex
    weights of its atoms_used extreme points.
    result may be an ApproximationResult (the certificate is attached on
    success) or a matrix Y.  The search is deterministic; seed is accepted
    for compatibility.
    """
    cert_tol = tolerance(cert_tol, "cert_tol")
    attach = result if isinstance(result, ApproximationResult) else None
    a, y = matrix_pair(matrix_in(a, subspace), attach.y if attach is not None else result)
    r = a - y
    n0 = min(a.shape)
    p, k = subdiff_pk(spec, n0)
    if not subspace.dim:
        return CertificateResult(True, None, 0.0, np.zeros(0), 0, norm(r, spec), True, 0.0)
    if negligible(r, a):
        # zero residual up to round-off: Y = A attains the smallest conceivable value
        return CertificateResult(True, None, 0.0, np.zeros(0), 0, 0.0, True, 0.0)

    desc = descriptor(r, p, k)
    face = face_min_norm(desc, subspace.rows, tol=cert_tol, max_iter=FACE_ITER)
    pairing = float(np.real(np.vdot(face.g, r)))
    out = CertificateResult(found=face.residual <= cert_tol, f_matrix=face.g,
                            residual_perp=face.residual, weights=face.weights,
                            atoms_used=len(face.atoms), pairing=pairing,
                            singleton=desc.singleton, residual_lower=face.lower)
    if attach is not None and out.found:
        attach.certificate = face.g
    return out


# singular values of G below RANK_TOL of the largest are dropped
RANK_TOL = 1e-6
# singular values of the pin map up to NULL_TOL span its null space
NULL_TOL = 1e-8


@dataclass
class PinMap:
    u: np.ndarray       # U_G, m x r
    v: np.ndarray       # V_G, n x r
    values: np.ndarray  # the r pinned singular values
    null: np.ndarray    # orthonormal columns: real coordinates of the free directions
    least: float        # least singular value of the realified map


def pin_map(res, subspace, cert):
    """The equations the certificate G of the solve res fixes for every minimizer.

    G is orthogonal to the subspace, so it is a subgradient at every other
    minimizer R' too: R' V_G = U_G diag(values) and R'* U_G = V_G diag(values)
    over G's singular pairs above RANK_TOL.  A pair with G-value tau is pinned
    at f for the sigma_1 norms; for k >= 2 at f tau^(1/(p-1)) on a block fully
    inside the top k, and at the boundary value sigma_k on the range of Q,
    where tau is smaller.  A matrix-less certificate (zero residual) pins
    every value at 0, one not found pins nothing.  null spans the directions
    D with D V_G = 0 and D* U_G = 0, the only ones a minimizer can move along.
    """
    r = res.residual
    m, n = r.shape
    if not cert.found:
        u, v, values = np.zeros((m, 0)), np.zeros((n, 0)), np.zeros(0)
    elif cert.f_matrix is None:
        u, v, values = np.eye(m), np.eye(n), np.zeros(min(m, n))
    else:
        ug, tau, vgh = np.linalg.svd(cert.f_matrix)
        rank = int(np.sum(tau > RANK_TOL * tau[0]))
        u, v = ug[:, :rank], vgh[:rank].conj().T
        p, k = subdiff_pk(res.spec, min(m, n))
        values = np.full(rank, res.value) if k == 1 else np.maximum(
            res.value * tau[:rank] ** (1.0 / (p - 1.0)), res.sigma[k - 1])
    rows = subspace.rows.reshape((-1,) + r.shape)
    cmap = np.concatenate([(rows @ v).reshape(len(rows), -1),
                           (rows.conj().transpose(0, 2, 1) @ u).reshape(len(rows), -1)], axis=1)
    q, s, _ = np.linalg.svd(np.concatenate([cmap.real, cmap.imag], axis=1))
    s = np.concatenate([s, np.zeros(len(q) - s.size)])
    return PinMap(u=u, v=v, values=values, null=q[:, s <= NULL_TOL], least=float(s[-1]))


@dataclass
class UniquenessProbe:
    unique_predicted: bool
    rank_x: int
    spread: float
    violation: bool
    best_value: float
    certified: bool     # certify_best certified the solve
    null_dim: int       # free real directions of its pin map; certified and 0 prove uniqueness
    null_sigma: float   # least singular value of the pin map


def unique_1d_probe(a, x, p, k, trials=12, seed=0):
    """Decide uniqueness of the best (p, k)-approximation from span{X}.

    Predicted unique when rank(X) > n - k (columns n).  One best_approx solve
    from trials starts is certified and its pin_map decides: every minimizer
    lies in the certified point plus the null space, so a null space of 0
    proves it unique (spread 0).  Otherwise trials chords through the point,
    fanned over the null space (the whole span without a certificate), are
    bisected where the value reaches f (1 + GAP_TOL); spread is the largest
    distance between two chord ends, a lower bound on the diameter of that
    level set.  violation is set when a predicted-unique instance spreads
    beyond 1e-5.  p < 2 raises UnsupportedError, as certify_best does.
    """
    a, x = matrix_pair(a, x)
    sx = np.linalg.svd(x, compute_uv=False)
    rank_x = int(np.sum(sx > 1e-12 * sx[0])) if sx.size else 0
    if rank_x == 0:
        raise InvalidInputError("X must be nonzero")
    spec = NormSpec.kyfan(p, k)
    n0 = min(a.shape)
    subdiff_pk(spec, n0)  # p < 2 raises before the solve
    predicted = rank_x > a.shape[1] - spec.resolve(n0)[1]

    sub = MatrixSubspace([x], field="complex")
    res = best_approx(a, sub, spec, starts=trials, seed=seed)
    cert = certify_best(a, sub, spec, res)
    pins = pin_map(res, sub, cert)
    x0 = sub.real_coordinates(res.y)
    ends = x0[None]
    free = pins.null.shape[1]  # 0, 1 or 2 real directions
    if free:
        angle = np.pi * np.arange(trials if free > 1 else 1) / trials
        dirs = np.stack([np.cos(angle), np.sin(angle)], axis=1)[:, :free] @ pins.null.T
        dirs = np.concatenate([dirs, -dirs])
        level = res.value * (1.0 + GAP_TOL)
        # ||R + tD|| >= t ||D||_F / sqrt(n0) - f for unit D: the value exceeds level at hi
        lo, hi = np.zeros(len(dirs)), np.full(len(dirs), 2.0 * np.sqrt(n0) * (level + res.value))
        obj = Objective(a, sub, spec)
        while np.any(hi - lo > 1e-10 * hi):  # chord ends to 1e-10 of the ray
            mid = (lo + hi) / 2.0
            inside = obj.value_many(x0 + mid[:, None] * dirs) <= level
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        ends = x0 + lo[:, None] * dirs
    spread = float(np.max(np.linalg.norm(ends[:, None] - ends[None], axis=-1)))
    return UniquenessProbe(unique_predicted=predicted, rank_x=rank_x, spread=spread,
                           violation=bool(predicted and spread > 1e-5),
                           best_value=float(res.value), certified=bool(cert.found),
                           null_dim=free, null_sigma=pins.least)


# ---------------------------------------------------------------------------
# strict spectral approximation


@dataclass
class StageInfo:
    k: int
    value: float      # f_k = (sigma_1^2 + ... + sigma_k^2)^(1/2) of the final residual
    skipped: bool     # sigma_k lies in sigma_(k-1)'s block of the final spectrum
    feasible: bool    # the final residual keeps the value the solve fixed for sigma_k
    converged: bool   # the solve that fixed sigma_k closed its bracket and was certified
    active: int       # singular values fixed before that solve
    gap: float        # its certificate residual ||P_S G|| (0 where no freedom was left)


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


def _complement(u):
    """Orthonormal basis of the orthogonal complement of the orthonormal columns u."""
    return np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]


def strict_spectral(a, subspace, starts=12, iters=150, seed=0):
    """Strict spectral approximant by certified deflation.

    Each stage solves the sigma_1 problem on the current compression with
    best_approx and certifies it (certify_best).  Every minimizer then
    satisfies the pin equations R V_G = m U_G and R* U_G = m V_G of pin_map;
    their null space maps onto a real-field subspace of the compression
    U_perp* R V_perp, the next stage's problem.  A tied value that RANK_TOL
    drops is fixed again by the next stage.  The loop stops when the
    compression or its freedom is empty (the remaining singular values are
    then fixed), at a zero residual (core.negligible) or at a stage that is
    not certified.  stage_tol is the accuracy each certified stage
    guarantees, GAP_TOL (1 + sigma_1).
    """
    a = matrix_in(a, subspace)
    if not subspace.dim:
        raise InvalidInputError("cannot approximate from an empty subspace")
    spectral = NormSpec.spectral()
    n0 = min(a.shape)
    x = np.zeros(len(subspace.rows))
    to_x = np.eye(x.size)  # current stage coordinates -> x
    cur, sub = a, subspace
    pins = []  # (count, value fixed or None, converged, gap) per stage
    while True:
        res = best_approx(cur, sub, spectral, starts=starts, iters=iters,
                          seed=seed + 101 * len(pins))
        x = x + to_x @ sub.real_coordinates(res.y)
        if negligible(res.residual, a):
            # every remaining value is 0, up to round-off
            pins.append((min(cur.shape), 0.0, res.converged, 0.0))
            break
        cert = certify_best(cur, sub, spectral, res)
        if not cert.found:
            # nothing proven to deflate on: the rest stays as this point leaves it
            pins.append((min(cur.shape), None, False, cert.residual_perp))
            break
        pm = pin_map(res, sub, cert)
        pins.append((pm.values.size, res.value, res.converged, cert.residual_perp))
        u_p, v_p = _complement(pm.u), _complement(pm.v)
        cur = u_p.conj().T @ res.residual @ v_p
        if not (cur.size and pm.null.size):
            break
        rows = sub.rows.reshape((-1,) + res.residual.shape)
        to_x = to_x @ pm.null
        sub = MatrixSubspace(list(u_p.conj().T @ np.tensordot(pm.null.T, rows, axes=1) @ v_p),
                             field="real")

    coeffs = subspace.coefficients((x @ subspace.rows).reshape(a.shape))
    y = subspace.combine(coeffs)
    residual = a - y
    sigma = np.linalg.svd(residual, compute_uv=False)
    blocks = spectrum_blocks(sigma)
    values = [float(v) for v in np.hypot.accumulate(sigma)]
    stage_tol = GAP_TOL * (1.0 + float(sigma[0]))
    log, fixed = [], 0
    # the values left once the compression or its freedom is empty need no solve
    for count, m, converged, gap in pins + [(n0, None, True, 0.0)]:
        feasible = m is None or np.max(np.abs(sigma[fixed:fixed + count] - m)) <= stage_tol
        for k in range(fixed + 1, min(fixed + count, n0) + 1):
            log.append(StageInfo(k=k, value=values[k - 1],
                                 skipped=k > 1 and blocks.block_of(k) == blocks.block_of(k - 1),
                                 feasible=bool(feasible), converged=bool(converged),
                                 active=fixed, gap=float(gap)))
        fixed += count
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
    sigma: np.ndarray   # the residual spectrum of the one solve
    value: float
    pinned: np.ndarray  # sigma_1..sigma_k of every minimizer; fewer when fewer are pinned
    certified: bool


def pk_singular_value_check(a, subspace, p, k, gap_tol=1e-6, seed=0, starts=10, iters=120):
    """Do all best (p, k)-approximations from the subspace share sigma_1..sigma_k?

    One solve is certified; every minimizer satisfies the pin equations of
    its certificate (pin_map), so the k largest pinned values are
    sigma_1..sigma_k of them all.  applicable: the residual shows a gap
    sigma_k > sigma_{k+1} + gap_tol; max_deviation: the solve's own
    sigma_1..sigma_k against the pinned ones; passed: not applicable, or all
    k are pinned and within 1e-6 of the solve's.  p < 2 raises UnsupportedError.
    """
    a = matrix_in(a, subspace)
    spec = NormSpec.kyfan(p, k)
    _, k_eff = spec.resolve(min(a.shape))
    if not subspace.dim:
        # no freedom: the one residual is A itself
        s = np.linalg.svd(a, compute_uv=False)
        pinned, certified, value = s[:k_eff], True, float(norm(a, spec))
    else:
        res = best_approx(a, subspace, spec, starts=starts, iters=iters, seed=seed)
        cert = certify_best(a, subspace, spec, res)
        s, value, certified = res.sigma, res.value, cert.found
        pinned = np.sort(pin_map(res, subspace, cert).values)[::-1][:k_eff]
    applicable = bool(s[k_eff - 1] > (s[k_eff] if k_eff < s.size else 0.0) + gap_tol)
    dev = float(np.max(np.abs(s[:pinned.size] - pinned), initial=0.0))
    return PkCheckReport(applicable=applicable, max_deviation=dev, gap_tol=gap_tol,
                         passed=not applicable or (certified and pinned.size == k_eff and dev <= 1e-6),
                         sigma=s, value=value, pinned=pinned, certified=bool(certified))
