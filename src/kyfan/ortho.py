"""Birkhoff-James orthogonality for the Ky Fan (p,k) norms, p >= 2.

A is BJ-orthogonal to B when ||A + z B|| >= ||A|| for every scalar z.  That
holds iff some subgradient G at A has tr(G* B) = 0, so the decision reduces to
the scalar set

    T = { tr(G* B) : G an extreme subgradient at A }
      = fixed + { tr(C* Mb C) : C a d x r isometry }          (boundary freedom)

T is convex (the r-numerical range of Mb is), so min/max of |t| over T come
from the planar support function h(theta) = max Re(e^{-i theta} t), computed
exactly per direction by a top-r eigensum.

The approximate (eps) variant asks ||A + zB||^2 >= ||A||^2 - 2 eps ||A|| ||zB||
and reduces to min |t| <= eps ||B|| (complex scalars) or min |Re t| <= eps ||B||
(real scalars).  Norm parallelism is the opposite extreme: max |t| = ||B||.

Orthogonality to a whole subspace is certified by density matrices: PSD
trace-one T_i supported in the sigma_i^2 eigenspaces of A*A such that
prefactor * sum T_i lies in the orthogonal complement of the subspace; found
by Dykstra alternating projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MatrixSubspace, as_matrix
from .errors import InvalidInputError
from .norms import NormSpec, dual_norm, norm
from .subdiff import descriptor, pairing_range_parts, top_eigsum


@dataclass
class InnerRange:
    """The scalar set T = {tr(G* B)} over extreme subgradients at A."""

    fixed_part: complex
    min_abs: float
    max_abs: float
    singleton: bool
    theta_min: float = 0.0     # where the support function h is smallest
    theta_max: float = 0.0     # where h is largest
    desc: object = field(default=None, repr=False)
    mb: object = field(default=None, repr=False)

    def support(self, theta):
        """h(theta) = max over T of Re(e^{-i theta} t)."""
        val = float(np.real(np.exp(-1j * theta) * self.fixed_part))
        if self.mb is not None:
            r = self.desc.boundary.required
            val += top_eigsum(np.exp(-1j * theta) * self.mb, r)
        return val

    def real_interval(self):
        """[min Re t, max Re t] over T."""
        return -self.support(np.pi), self.support(0.0)


def _golden_min(fun, lo, hi, iters=60):
    # golden-section search for the minimum of a unimodal fun on [lo, hi]
    phi = (np.sqrt(5) - 1) / 2
    c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - phi * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + phi * (hi - lo)
            fd = fun(d)
    x = (lo + hi) / 2
    return x, fun(x)


def _refine_extremum(fun, grid, values, minimize_it):
    # golden-section refinement over the two grid cells around the best grid
    # value; keeps the grid point if refinement does not improve on it
    sign = 1.0 if minimize_it else -1.0
    idx = int(np.argmin(sign * values))
    step = grid[1] - grid[0]
    x, fx = _golden_min(lambda t: sign * fun(t), grid[idx] - step, grid[idx] + step)
    if sign * values[idx] < fx:
        return float(grid[idx]), float(values[idx])
    return float(x), sign * fx


def inner_range(a, b, p, k, tol=None):
    """Compute T's geometry: fixed part, min |t|, max |t| and the extreme directions.

    Values carry the 1/||A||^(p-1) normalization, i.e. they are pairings with
    dual-unit subgradients, so |t| <= ||B||_(p,k) always.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise InvalidInputError("shape mismatch")
    kwargs = {} if tol is None else {"tol": tol}
    desc = descriptor(a, p, k, **kwargs)
    if desc.at_zero:
        raise InvalidInputError("inner_range needs A != 0")
    fixed, mb = pairing_range_parts(desc, b)

    rng_obj = InnerRange(fixed_part=fixed, min_abs=abs(fixed), max_abs=abs(fixed),
                         singleton=desc.singleton, theta_min=float(np.angle(-fixed)),
                         theta_max=float(np.angle(fixed)), desc=desc, mb=mb)
    if mb is None:
        return rng_obj

    # one support scan serves both extremes; T convex, so max |t| is the
    # largest support value and dist(0, T) = max(0, -min h)
    h = rng_obj.support
    grid = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    hv = np.array([h(t) for t in grid])
    rng_obj.theta_min, hmin = _refine_extremum(h, grid, hv, minimize_it=True)
    rng_obj.theta_max, hmax = _refine_extremum(h, grid, hv, minimize_it=False)
    rng_obj.min_abs = max(0.0, -hmin)
    rng_obj.max_abs = hmax
    return rng_obj


def _attaining_isometry(rng_obj, theta):
    """Isometry attaining the support value in direction theta."""
    mb = rng_obj.mb
    r = rng_obj.desc.boundary.required
    h = (np.exp(-1j * theta) * mb + (np.exp(-1j * theta) * mb).conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    return v[:, ::-1][:, :r]


def _attaining_value(rng_obj, theta):
    c = _attaining_isometry(rng_obj, theta)
    return complex(rng_obj.fixed_part + np.trace(c.conj().T @ rng_obj.mb @ c))


def _witness_isometry(rng_obj, seed=0):
    """Search an isometry whose scalar has modulus near min |t| (best effort)."""
    desc, mb = rng_obj.desc, rng_obj.mb
    if mb is None:
        return None, abs(rng_obj.fixed_part)
    r = desc.boundary.required

    def value(c):
        return complex(rng_obj.fixed_part + np.trace(c.conj().T @ mb @ c))

    rng = np.random.default_rng(seed)
    starts = [_attaining_isometry(rng_obj, th) for th in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    for _ in range(4):
        g = rng.standard_normal((mb.shape[0], r)) + 1j * rng.standard_normal((mb.shape[0], r))
        starts.append(np.linalg.qr(g)[0])
    best_c, best_v = None, np.inf
    for c in starts:
        c = c.copy()
        for _ in range(60):
            z = value(c)
            if abs(z) <= 1e-14:
                break
            # move toward the face that decreases Re(e^{-i arg(-z)} ...): the
            # support direction opposite the current value
            target = _attaining_isometry(rng_obj, np.angle(-z))
            # golden line search along the interpolated subspace path
            def mod_at(s):
                m = (1 - s) * c + s * target
                q, _ = np.linalg.qr(m)
                return abs(value(q[:, :r]))
            ss = np.linspace(0.0, 1.0, 21)
            vals = [mod_at(s) for s in ss]
            s_best = ss[int(np.argmin(vals))]
            if s_best == 0.0:
                break
            m = (1 - s_best) * c + s_best * target
            c = np.linalg.qr(m)[0][:, :r]
        z = abs(value(c))
        if z < best_v:
            best_v, best_c = z, c
    return best_c, best_v


@dataclass
class BjResult:
    orthogonal: bool
    min_abs: float
    witness_basis: np.ndarray | None
    witness_residual: float | None
    refuting_lambda: complex | None
    refuting_norm: float | None
    inner: InnerRange


def _witness_basis(rng_obj, seed=0):
    desc = rng_obj.desc
    cols = []
    for j in desc.full_blocks:
        lo, hi = desc.blocks.block_range(j)
        cols.append(desc.eig_bases[j][:, : hi - lo])
    residual = None
    if desc.boundary is not None:
        c, residual = _witness_isometry(rng_obj, seed=seed)
        cols.append(desc.boundary.basis @ c)
    else:
        residual = abs(rng_obj.fixed_part)
    return np.concatenate(cols, axis=1) if cols else None, residual


def check_bj(a, b, p, k, tol=1e-8, seed=0):
    """Decide Birkhoff-James orthogonality of a to b in ||.||_(p,k).

    True iff min |t| over T is <= tol.  A true verdict carries a witness basis
    of k orthonormal eigenvectors (seed drives its search); a false one carries
    a refuting lambda with ||a + lambda b|| < ||a||: the minimizer along the ray
    of steepest descent.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    spec = NormSpec.kyfan(p, k)
    na = norm(a, spec)
    if na == 0.0:
        # the zero matrix is orthogonal to everything
        triv = InnerRange(0.0, 0.0, 0.0, True)
        return BjResult(True, 0.0, None, 0.0, None, None, triv)
    rng_obj = inner_range(a, b, p, k)
    if rng_obj.min_abs <= tol:
        basis, resid = _witness_basis(rng_obj, seed=seed)
        return BjResult(True, rng_obj.min_abs, basis, resid, None, None, rng_obj)

    # refute along e^{-i theta_min}: s -> ||a + s e^{-i theta_min} b|| is convex
    # with slope -min_abs < 0 at s = 0 and exceeds ||a|| past 2||a||/||b||
    direction = np.exp(-1j * rng_obj.theta_min)
    s_star, _ = _golden_min(lambda s: norm(a + s * direction * b, spec),
                            0.0, 2.0 * na / norm(b, spec))
    lam = s_star * direction
    return BjResult(False, rng_obj.min_abs, None, None, lam, norm(a + lam * b, spec), rng_obj)


@dataclass
class EpsBjResult:
    satisfied: bool
    eps: float
    mode: str
    attained: float     # min |t| (complex) or min |Re t| (real)
    threshold: float    # eps * ||b||
    inner: InnerRange


def check_eps_bj(a, b, p, k, eps, mode="complex", tol=1e-8, seed=0):
    """Approximate orthogonality: ||a+zb||^2 >= ||a||^2 - 2 eps ||a|| ||zb|| for all z.

    Scalars z range over the mode's field.  Characterized by min |t| <= eps||b||
    (complex) or min |Re t| <= eps||b|| (real) over the scalar set T.  The
    decision is deterministic; seed is accepted for the shared check signature.
    """
    if not 0.0 <= eps < 1.0:
        raise InvalidInputError("eps must lie in [0, 1)")
    if mode not in ("complex", "real"):
        raise InvalidInputError("mode must be 'complex' or 'real'")
    nb = norm(b, NormSpec.kyfan(p, k))
    if norm(a, NormSpec.kyfan(p, k)) == 0.0:
        triv = InnerRange(0.0, 0.0, 0.0, True)
        return EpsBjResult(True, eps, mode, 0.0, eps * nb, triv)
    rng_obj = inner_range(a, b, p, k)
    if mode == "complex":
        attained = rng_obj.min_abs
    else:
        lo, hi = rng_obj.real_interval()
        attained = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    return EpsBjResult(attained <= eps * nb + tol, eps, mode, attained, eps * nb, rng_obj)


@dataclass
class ParallelResult:
    parallel: bool | None      # None when undefined at rank deficiency
    lam: complex | None
    max_abs: float
    threshold: float           # ||b||
    rank_deficient: bool
    additivity_gap: float | None


def check_parallel(a, b, p, k, tol=1e-8, seed=0):
    """Norm parallelism: exists |lam| = 1 with ||a + lam b|| = ||a|| + ||b||.

    Holds iff max |t| over T reaches ||b||_(p,k).  With sigma_k(a) = 0 the
    scalar characterization is not established; the verdict is None then.
    The decision is deterministic; seed is accepted for the shared check signature.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if norm(a, NormSpec.kyfan(p, k)) == 0.0 or norm(b, NormSpec.kyfan(p, k)) == 0.0:
        raise InvalidInputError("check_parallel needs nonzero a and b")
    rng_obj = inner_range(a, b, p, k)
    nb = norm(b, NormSpec.kyfan(p, k))
    if rng_obj.desc.rank_deficient:
        return ParallelResult(None, None, rng_obj.max_abs, nb, True, None)
    is_par = rng_obj.max_abs >= nb - tol * max(1.0, nb)
    lam = None
    gap = None
    if is_par:
        if rng_obj.mb is None:
            t_att = rng_obj.fixed_part
        else:
            t_att = _attaining_value(rng_obj, rng_obj.theta_max)
        if abs(t_att) > 0:
            lam = complex(np.conj(t_att / abs(t_att)))
            spec = NormSpec.kyfan(p, k)
            gap = abs(norm(a + lam * b, spec) - norm(a, spec) - nb)
    return ParallelResult(bool(is_par), lam, rng_obj.max_abs, nb, False, gap)


# ---------------------------------------------------------------------------
# orthogonality to a subspace: density-matrix certificates via Dykstra
# ---------------------------------------------------------------------------


def _herm_basis(d):
    """Orthonormal (trace inner product) basis of d x d Hermitian matrices.

    Ordered to match _herm_to_vec: diagonal units, then real off-diagonal
    symmetrizers, then imaginary ones, both in upper-triangle row-major order.
    """
    out = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2)
            out.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1j / np.sqrt(2)
            e[j, i] = -1j / np.sqrt(2)
            out.append(e)
    return out


def _herm_to_vec(h):
    d = h.shape[0]
    idx = np.triu_indices(d, 1)
    return np.concatenate([np.real(np.diag(h)),
                           np.sqrt(2) * np.real(h[idx]),
                           np.sqrt(2) * np.imag(h[idx])])


def _vec_to_herm(v, d):
    out = np.zeros((d, d), dtype=complex)
    out[np.diag_indices(d)] = v[:d]
    m = d * (d - 1) // 2
    re = v[d:d + m] / np.sqrt(2)
    im = v[d + m:d + 2 * m] / np.sqrt(2)
    idx = np.triu_indices(d, 1)
    out[idx] = re + 1j * im
    out[idx[1], idx[0]] = re - 1j * im
    return out


def _simplex_project(w):
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    w = np.asarray(w, dtype=float)
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, w.size + 1) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(w - theta, 0.0, None)


@dataclass
class DensityCertificate:
    feasible: bool
    T_list: list
    residual_eig: float
    residual_perp: float
    dual_norm_bound: float
    iterations: int
    certificate_matrix: np.ndarray | None


def subspace_certificate(a, subspace, p, k, tol=1e-9, max_iter=5000):
    """Density matrices T_1..T_k certifying BJ-orthogonality of a to the subspace.

    Each T_i is PSD with unit trace, supported in the sigma_i(a)^2 eigenspace of
    A*A, and prefactor * sum_i T_i must land in the orthogonal complement of the
    subspace.  Solved by Dykstra alternating projections between the spectral
    simplices and that linear constraint, from the uniform-mixture start.
    """
    a = as_matrix(a)
    if not isinstance(subspace, MatrixSubspace):
        raise InvalidInputError("subspace must be a MatrixSubspace")
    desc = descriptor(a, p, k)
    if desc.at_zero:
        raise InvalidInputError("subspace_certificate needs A != 0")

    blocks = desc.blocks
    bidx = [blocks.block_of(i) for i in range(1, k + 1)]
    dims = [desc.eig_bases[j].shape[1] for j in bidx]
    offsets = np.concatenate([[0], np.cumsum([d * d for d in dims])])
    nvar = int(offsets[-1])

    pf_z = [desc.prefactor @ desc.eig_bases[j] for j in bidx]  # m x d_i slices

    # rows of the linear map: coefficients of pf sum_i Z tau_i Z* against the ONB
    rows = []
    hbases = {d: _herm_basis(d) for d in set(dims)}
    for e in subspace.onb:
        row_c = np.zeros(nvar, dtype=complex)
        for i, (j, d) in enumerate(zip(bidx, dims)):
            zb = desc.eig_bases[j]
            # <pf Z tau Z*, E> = tr(E* pf Z tau Z*) = tr((Z* E* pf Z) tau)
            w = zb.conj().T @ e.conj().T @ pf_z[i]  # d x d
            for t, hb in enumerate(hbases[d]):
                row_c[offsets[i] + t] = np.trace(w @ hb)
        if subspace.field == "complex":
            rows.append(np.real(row_c))
            rows.append(np.imag(row_c))
        else:
            rows.append(np.real(row_c))
    L = np.array(rows) if rows else np.zeros((0, nvar))
    if L.shape[0]:
        # projection onto null(L): x - L^T (L L^T)^+ L x
        lpinv = np.linalg.pinv(L @ L.T, rcond=1e-12)

    def proj_affine(x):
        if not L.shape[0]:
            return x
        return x - L.T @ (lpinv @ (L @ x))

    def proj_simplices(x):
        out = np.empty_like(x)
        for i, d in enumerate(dims):
            tau = _vec_to_herm(x[offsets[i]:offsets[i + 1]], d)
            w, v = np.linalg.eigh((tau + tau.conj().T) / 2.0)
            w = _simplex_project(w)
            out[offsets[i]:offsets[i + 1]] = _herm_to_vec((v * w) @ v.conj().T)
        return out

    # uniform mixture start
    x = np.concatenate([_herm_to_vec(np.eye(d) / d) for d in dims])
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    feasible = False
    it = 0
    y = x
    for it in range(1, max_iter + 1):
        y = proj_simplices(x + p_corr)
        p_corr = x + p_corr - y
        x_new = proj_affine(y + q_corr)
        q_corr = y + q_corr - x_new
        moved = np.linalg.norm(x_new - x)
        x = x_new
        resid = np.linalg.norm(L @ y) if L.shape[0] else 0.0
        if resid <= tol:
            feasible = True
            break
        if moved <= 1e-16 and it > 50:
            break

    taus = [_vec_to_herm(y[offsets[i]:offsets[i + 1]], d) for i, d in enumerate(dims)]
    t_list = [desc.eig_bases[j] @ tau @ desc.eig_bases[j].conj().T
              for j, tau in zip(bidx, taus)]
    cert = desc.prefactor @ sum(t_list)
    onto, _ = subspace.project(cert) if subspace.dim else (np.zeros_like(cert), cert)
    resid_perp = float(np.linalg.norm(onto))
    ata = a.conj().T @ a
    sig2 = np.array([blocks.values[j] ** 2 for j in bidx])
    resid_eig = max(float(np.linalg.norm(ata @ t - s2 * t)) for t, s2 in zip(t_list, sig2))
    bound = dual_norm(cert, NormSpec.kyfan(p, k))
    return DensityCertificate(
        feasible=feasible and resid_perp <= max(tol, 1e-9) * 10,
        T_list=t_list, residual_eig=resid_eig, residual_perp=resid_perp,
        dual_norm_bound=bound, iterations=it, certificate_matrix=cert)


def verify_certificate(a, subspace, p, k, cert, tol=1e-8, samples=20, seed=0):
    """Re-check a density certificate from scratch; returns (ok, report).

    ok requires: each T_i PSD with unit trace, eigenspace residuals <= tol,
    perp residual <= tol, dual norm <= 1 + tol, and no sampled direction in the
    subspace that drops the norm below ||a|| - 1e-9.
    """
    a = as_matrix(a)
    spec = NormSpec.kyfan(p, k)
    na = norm(a, spec)
    f_sigma = np.linalg.svd(a, compute_uv=False)
    ata = a.conj().T @ a

    report = {}
    psd_ok, trace_ok = True, True
    for t in cert.T_list:
        w = np.linalg.eigvalsh((t + t.conj().T) / 2.0)
        if w.size and w[0] < -1e-10:
            psd_ok = False
        if abs(np.trace(t).real - 1.0) > 1e-8 or abs(np.trace(t).imag) > 1e-10:
            trace_ok = False
    report["psd_ok"] = psd_ok
    report["trace_ok"] = trace_ok

    resid_eig = max(float(np.linalg.norm(ata @ t - (s ** 2) * t))
                    for t, s in zip(cert.T_list, f_sigma[:k]))
    report["residual_eig"] = resid_eig

    desc = descriptor(a, p, k)
    cmat = desc.prefactor @ sum(cert.T_list)
    onto, _ = subspace.project(cmat) if subspace.dim else (np.zeros_like(cmat), cmat)
    resid_perp = float(np.linalg.norm(onto))
    report["residual_perp"] = resid_perp

    bound = dual_norm(cmat, spec)
    report["dual_norm_bound"] = bound

    rng = np.random.default_rng(seed)
    min_gap = 0.0
    for _ in range(samples if subspace.dim else 0):
        if subspace.field == "real":
            coef = rng.standard_normal(subspace.dim)
        else:
            coef = rng.standard_normal(subspace.dim) + 1j * rng.standard_normal(subspace.dim)
        bdir = subspace.combine(coef)
        nrm_b = np.linalg.norm(bdir)
        if nrm_b > 0:
            bdir = bdir * (rng.uniform(0.1, 2.0) * max(na, 1.0) / nrm_b)
        min_gap = min(min_gap, norm(a + bdir, spec) - na)
    report["min_direction_gap"] = min_gap

    ok = (psd_ok and trace_ok and resid_eig <= tol and resid_perp <= tol
          and bound <= 1.0 + tol and min_gap >= -1e-9 * max(1.0, na))
    return ok, report
