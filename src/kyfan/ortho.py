"""Birkhoff-James orthogonality for the Ky Fan (p,k) norms, for p >= 2 and
every norm that is sigma_1, which resolves to (2, 1) (NormSpec.resolve).

A is BJ-orthogonal to B when ||A + z B|| >= ||A|| for every scalar z.  That
holds iff some subgradient G at A has tr(G* B) = 0, so the decision reduces to
the scalar set

    T = { tr(G* B) : G an extreme subgradient at A }
      = fixed + { tr(C* Mb C) : C a d x r isometry }          (boundary freedom)

T is convex (the r-numerical range of Mb is), so min/max of |t| over T come
from the planar support function h(theta) = max Re(e^{-i theta} t), a top-r
eigensum per direction.  Each check refines only the extreme it reads: the
best of 256 directions starts an Illinois secant on h'.  A true BJ verdict
carries a witness: the subgradient G nearest to tr(G* B) = 0, found by
face_min_norm with S = span_C{B}, and is given only when that search reaches
the threshold; when it proves 0 far from T instead, its nearest point's
direction restarts the secant.  A false verdict carries a refuting lambda: the
minimizer of ||A + s e^{-i theta} B|| along the ray of steepest descent, found
by the same secant on its slope Re tr(G* e^{-i theta} B), with G the
closed-form extreme subgradient from one SVD per point.

The approximate (eps) variant asks ||A + zB||^2 >= ||A||^2 - 2 eps ||A|| ||zB||
and reduces to min |t| <= eps ||B|| (complex scalars) or min |Re t| <= eps ||B||
(real scalars).  Norm parallelism is the opposite extreme: max |t| = ||B||.

Orthogonality to a whole subspace is certified by density matrices: PSD
trace-one T_i supported in the sigma_i^2 eigenspaces of A*A such that
prefactor * sum T_i lies in the orthogonal complement of the subspace.  They
come from the same face routine: rank-one eigenprojectors on the full
eigenspace blocks and Q / r for each index of the block straddling k, with Q
in the fantope {0 <= Q <= I, tr Q = r} nearest to the complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MatrixSubspace, matrix_in, matrix_pair, tolerance
from .errors import InvalidInputError
from .norms import NormSpec, _sigma_norm, dual_norm, extreme_subgradient, norm
from .subdiff import descriptor, face_min_norm, pairing_range_parts, top_eigsum


@dataclass
class InnerRange:
    """The scalar set T = {tr(G* B)} over extreme subgradients at A."""

    fixed_part: complex
    singleton: bool
    desc: object = field(default=None, repr=False)
    mb: object = field(default=None, repr=False)

    def support(self, theta):
        """h(theta) = max over T of Re(e^{-i theta} t); an array of angles is
        evaluated with one stacked eigvalsh."""
        rot = np.exp(-1j * np.asarray(theta, dtype=float))
        val = np.real(rot * self.fixed_part)
        if self.mb is not None:
            # max Re tr(Q e^{-i theta} Mb) over rank-r projectors Q, as in dir_derivative
            val = val + top_eigsum(rot[..., None, None] * self.mb, self.desc.boundary.required)
        return float(val) if np.ndim(val) == 0 else val

    def real_interval(self):
        """[min Re t, max Re t] over T."""
        return -self.support(np.pi), self.support(0.0)

    def attaining(self, theta):
        """The point t of T attaining h(theta), from one eigh."""
        if self.mb is None:
            return self.fixed_part
        h = np.exp(-1j * theta) * self.mb
        c = np.linalg.eigh((h + h.conj().T) / 2.0)[1][:, -self.desc.boundary.required:]
        return complex(self.fixed_part + np.trace(c.conj().T @ self.mb @ c))

    def extreme(self, sign):
        """(theta, h(theta), t) where sign * h is largest, t attaining h(theta):
        sign = -1 gives dist(0, T) = max(0, -h), sign = 1 gives h = max |t| over
        T (T is convex).  The secant refines the best of 256 directions."""
        if self.mb is None:
            return self._refine(sign, 0.0)
        grid = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        return self._refine(sign, grid[np.argmax(sign * self.support(grid))])

    def _refine(self, sign, mid):
        """extreme's secant on h', started within +-1 grid step of mid."""
        if self.mb is None:
            t = self.fixed_part
            return float(np.angle(sign * t)), sign * abs(t), t

        def point(theta):  # -sign h and its slope: by Danskin e^{-i theta} t = h + i h'
            t = self.attaining(theta)
            z = -sign * np.exp(-1j * theta) * t
            return float(z.real), float(z.imag), abs(t), t

        lo, hi = mid - 2 * np.pi / 256, mid + 2 * np.pi / 256
        at_lo, at_hi = point(lo), point(hi)
        if at_lo[1] < 0.0 <= at_hi[1]:
            theta, val, t = _secant(point, lo, hi, at_lo, at_hi)
        else:  # h' keeps its sign at the ends: keep mid, the scan's best or a face's direction
            theta, (val, _, _, t) = mid, point(mid)
        return float(theta), -sign * val, t


def inner_range(a, b, p, k):
    """T's parts at A: the fixed part and the boundary compression Mb.

    Values carry the 1/||A||^(p-1) normalization, i.e. they are pairings with
    dual-unit subgradients, so |t| <= ||B||_(p,k) always.
    """
    a, b = matrix_pair(a, b)
    desc = descriptor(a, p, k)
    if desc.at_zero:
        raise InvalidInputError("inner_range needs A != 0")
    fixed, mb = pairing_range_parts(desc, b)
    return InnerRange(fixed_part=complex(fixed), singleton=desc.singleton, desc=desc, mb=mb)


def _lowest(rng_obj, b, threshold, witness):
    """(theta, h, face): the lowest h found, and face_min_norm's G nearest to
    tr(G* b) = 0.  -h <= threshold decides dist(0, T) <= threshold.  The scan
    bounds dist(0, T) >= -h, exactly for a singleton T; else the face search
    over span_C{b} (down to the scan's -h for a witness) looks for a point of T
    within threshold, and if it stops above, the secant restarts from the
    direction -t of its last point t, where -h is the search's lower bound.
    """
    theta, h, _ = rng_obj.extreme(-1)
    if -h > threshold or (rng_obj.mb is None and not witness):
        return theta, h, None
    nb = float(np.linalg.norm(b))
    span = MatrixSubspace([b / nb] if nb > 0.0 else [], "complex", shape=b.shape)
    target = max(0.0, -h) if witness else threshold
    face = face_min_norm(rng_obj.desc, span.rows, tol=target / nb if span.dim else 0.0)
    if face.residual * nb > threshold:
        found = rng_obj._refine(-1, float(np.angle(-np.vdot(face.g, b))))
        theta, h, _ = min((theta, h, None), found, key=lambda x: x[1])
    return theta, h, face


def _secant(point, lo, hi, at_lo, at_hi):
    """Illinois secant for a minimum on [lo, hi]: point(x) returns (value, slope,
    scale, data), at_lo = point(lo) has slope < 0 and at_hi = point(hi) >= 0.
    It stops once |slope| (hi - lo), a bound on value - min where the function
    is convex, is <= 1e-15 scale, or after 50 steps.  Returns (x, value, data)
    of the smallest value seen."""
    g_lo, g_hi, side = at_lo[1], at_hi[1], 0
    best = (lo, at_lo[0], at_lo[3]) if at_lo[0] <= at_hi[0] else (hi, at_hi[0], at_hi[3])
    for _ in range(50):
        x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        x = x if lo < x < hi else 0.5 * (lo + hi)
        f, g, scale, data = point(x)
        if f < best[1]:
            best = (x, f, data)
        # Illinois: the slope of a bracket end kept twice in a row is halved
        if g < 0.0:
            lo, g_lo, g_hi, side = x, g, g_hi * (0.5 if side < 0 else 1.0), -1
        else:
            hi, g_hi, g_lo, side = x, g, g_lo * (0.5 if side > 0 else 1.0), 1
        if abs(g) * (hi - lo) <= 1e-15 * scale:
            break
    return best


@dataclass
class BjResult:
    orthogonal: bool
    min_abs: float
    witness: np.ndarray | None          # a subgradient G at a with tr(G* b) ~ 0
    witness_residual: float | None      # |tr(G* b)|
    refuting_lambda: complex | None
    refuting_norm: float | None
    inner: InnerRange


def check_bj(a, b, p, k, tol=1e-8, seed=0):
    """Decide Birkhoff-James orthogonality of a to b in ||.||_(p,k).

    True iff min |t| over T is <= tol ||b||_F, so that the verdict, like
    orthogonality itself, does not change under b -> cb.  A true verdict
    carries a witness: the subgradient G at a nearest to tr(G* b) = 0
    (face_min_norm over span_C{b}); one above the threshold turns the verdict
    false unless no direction has -h above it either (_lowest).  A false one
    carries a refuting lambda with ||a + lambda b|| < ||a||: the minimizer
    along the ray of steepest descent e^{-i theta} b, theta where T's support
    function is lowest, found by the secant on the slope of
    s -> ||a + s e^{-i theta} b||.  The decision is deterministic; seed is
    accepted for the shared check signature.
    """
    tol = tolerance(tol)
    a, b = matrix_pair(a, b)
    spec = NormSpec.kyfan(p, k)
    p, k = spec.resolve(min(a.shape))  # an invalid (p, k) raises here, also at a = 0
    if not np.any(a):
        # the zero matrix is orthogonal to everything; G = 0 is a subgradient there
        return BjResult(True, 0.0, np.zeros_like(a), 0.0, None, None, InnerRange(0.0, True))
    rng_obj = inner_range(a, b, p, k)
    nb = float(np.linalg.norm(b))
    theta, h_min, face = _lowest(rng_obj, b, tol * nb, witness=True)
    min_abs = max(0.0, -h_min)
    if min_abs <= tol * nb:
        return BjResult(True, min_abs, face.g, float(abs(np.vdot(face.g, b))), None, None, rng_obj)

    # refute along d b, d = e^{-i theta}: phi(s) = ||a + s d b|| is convex with
    # slope -min_abs < 0 at 0 and phi(hi) >= ||a|| at hi = 2||a||/||b||, so a slope
    # >= 0 there.  The slope is Re tr(G* d b), G the extreme subgradient at a + s d b.
    d = np.exp(-1j * theta)

    def point(s):
        u, sv, vh = np.linalg.svd(a + s * d * b, full_matrices=False)
        f = float(_sigma_norm(sv, p, k))
        return f, float(np.vdot(extreme_subgradient(u, sv, vh, f, p, k), d * b).real), f, None

    na, hi = rng_obj.desc.norm_value, 2.0 * rng_obj.desc.norm_value / norm(b, spec)
    lam = _secant(point, 0.0, hi, (na, -min_abs, na, None), point(hi))[0] * d
    return BjResult(False, min_abs, None, None, lam, norm(a + lam * b, spec), rng_obj)


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
    (complex) or min |Re t| <= eps||b|| (real) over the scalar set T, up to
    tol ||b||_F.  The decision is deterministic; seed is accepted for the
    shared check signature.
    """
    tol = tolerance(tol)
    if not 0.0 <= eps < 1.0:
        raise InvalidInputError("eps must lie in [0, 1)")
    if mode not in ("complex", "real"):
        raise InvalidInputError("mode must be 'complex' or 'real'")
    a, b = matrix_pair(a, b)
    nb = norm(b, NormSpec.kyfan(p, k))
    if not np.any(a):
        return EpsBjResult(True, eps, mode, 0.0, eps * nb, InnerRange(0.0, True))
    rng_obj = inner_range(a, b, p, k)
    threshold = eps * nb + tol * float(np.linalg.norm(b))
    if mode == "complex":
        attained = max(0.0, -_lowest(rng_obj, b, threshold, witness=False)[1])
    else:
        lo, hi = rng_obj.real_interval()
        attained = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    return EpsBjResult(attained <= threshold, eps, mode, attained, eps * nb, rng_obj)


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
    tol = tolerance(tol)
    a, b = matrix_pair(a, b)
    spec = NormSpec.kyfan(p, k)
    nb = norm(b, spec)
    if not np.any(a) or nb == 0.0:
        raise InvalidInputError("check_parallel needs nonzero a and b")
    rng_obj = inner_range(a, b, p, k)
    _, max_abs, t = rng_obj.extreme(1)
    if rng_obj.desc.rank_deficient:
        return ParallelResult(None, None, max_abs, nb, True, None)
    is_par = max_abs >= nb - tol * max(1.0, nb)
    lam = complex(np.conj(t / abs(t))) if is_par and abs(t) > 0 else None
    gap = None if lam is None else abs(norm(a + lam * b, spec) - rng_obj.desc.norm_value - nb)
    return ParallelResult(bool(is_par), lam, max_abs, nb, False, gap)


# ---------------------------------------------------------------------------
# orthogonality to a subspace: density-matrix certificates from the face routine
# ---------------------------------------------------------------------------


@dataclass
class DensityCertificate:
    feasible: bool
    T_list: list
    residual_perp: float      # ||P_S G||_F at the search's last point
    iterations: int
    residual_lower: float     # no certificate reaches below it: > tol proves infeasibility


def subspace_certificate(a, subspace, p, k, tol=1e-9, max_iter=5000):
    """Density matrices T_1..T_k certifying BJ-orthogonality of a to the subspace.

    Each T_i is PSD with unit trace, supported in the sigma_i(a)^2 eigenspace of
    A*A, and prefactor * sum_i T_i must land in the orthogonal complement of the
    subspace.  face_min_norm finds the subgradient nearest to that complement
    within max_iter oracle calls: the T_i are the rank-one eigenprojectors of
    the full blocks and Q / r for each index of the boundary block.  The
    certificate carries the search's evidence only: feasible when its residual
    ||P_S G||_F is <= tol, and residual_lower > tol proves that no certificate
    exists.  verify_certificate re-checks the T_i from scratch.
    """
    tol = tolerance(tol)
    a = matrix_in(a, subspace)
    desc = descriptor(a, p, k)
    face = face_min_norm(desc, subspace.rows, tol=tol, max_iter=max_iter)
    t_list = [np.outer(z, z.conj()) for z in desc.v_full.T]
    if desc.boundary is not None:
        zb, r = desc.boundary.basis, desc.boundary.required
        t_list += [zb @ face.q @ zb.conj().T / r] * r
    return DensityCertificate(feasible=face.residual <= tol, T_list=t_list,
                              residual_perp=face.residual, iterations=face.iterations,
                              residual_lower=face.lower)


def verify_certificate(a, subspace, p, k, cert, tol=1e-8, seed=0):
    """Re-check a density certificate from scratch; returns (ok, report).

    With G = prefactor sum_i T_i, ok requires each T_i PSD with unit trace
    (psd_ok, trace_ok), residual_eig (the largest ||A*A T_i - sigma_i^2 T_i||_F)
    and residual_perp (||P_S G||_F) <= tol, dual_norm_bound (of G) <= 1 + tol
    and pairing Re tr(G* a) >= ||a|| - tol max(1, ||a||).  By Hoelder, ok proves
    ||a + Y|| >= (||a|| - tol max(1, ||a||) - tol ||Y||_F) / (1 + tol) for every
    Y in the subspace.  T_list must hold k matrices of shape n x n (k resolved);
    the check is deterministic, and seed is accepted for the shared signature.
    """
    tol = tolerance(tol)
    a = matrix_in(a, subspace)
    desc = descriptor(a, p, k)  # one SVD serves sigma, ||a|| and the prefactor
    if desc.at_zero:
        raise InvalidInputError("density certificates need A != 0")
    if len(cert.T_list) != desc.k or any(np.shape(t) != a.shape[1:] * 2 for t in cert.T_list):
        raise InvalidInputError("a certificate holds k = %d matrices of shape %r" % (desc.k, a.shape[1:] * 2))
    ts = np.array(cert.T_list)
    w = np.linalg.eigvalsh((ts + ts.conj().transpose(0, 2, 1)) / 2.0)
    tr = np.trace(ts, axis1=1, axis2=2)
    resid = a.conj().T @ a @ ts - desc.sigma[:len(ts), None, None] ** 2 * ts
    g = desc.prefactor @ ts.sum(axis=0)
    report = {
        "psd_ok": not np.any(w[:, 0] < -1e-10),
        "trace_ok": not np.any((np.abs(tr.real - 1.0) > 1e-8) | (np.abs(tr.imag) > 1e-10)),
        "residual_eig": float(np.max(np.linalg.norm(resid, axis=(1, 2)))),
        "residual_perp": float(np.linalg.norm(subspace.project(g)[0])),
        "dual_norm_bound": dual_norm(g, NormSpec.kyfan(desc.p, desc.k)),
        "pairing": float(np.vdot(g, a).real),
    }
    ok = (report["psd_ok"] and report["trace_ok"] and report["residual_eig"] <= tol
          and report["residual_perp"] <= tol and report["dual_norm_bound"] <= 1.0 + tol
          and report["pairing"] >= desc.norm_value - tol * max(1.0, desc.norm_value))
    return ok, report
