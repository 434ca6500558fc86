"""Shared minimization machinery for the approximation routines.

The objective c -> ||A - sum c_j E_j||_spec is convex on the real coordinate
vector x of c, in the layout of the subspace's realified rows
(MatrixSubspace.rows), so a residual and a pull-back are one matrix product
each, on one point or on a stack of points.  Each point costs one SVD
of the residual R = U diag(sigma) V*: it gives the value and the closed-form
extreme subgradient U_k diag((sigma_i/||R||)^(p-1)) V_k*, which has dual norm 1
and pairing ||R|| for every p >= 1 (Watson 1992).

A solve stops at the first duality-gap bracket [lower, f] within GAP_TOL.  The
start of least value is polished first: BFGS with the exact gradient and a
weak Wolfe line search, which also steps across kinks (Lewis & Overton 2013),
stops at the first bracket certify_best can certify (Hoelder), else its end
point gets the lower bound (Hoelder, or the face bound at a kink).  A sigma_1
optimum is generically a kink, which BFGS creeps toward and never settles on;
so for the sigma_1 norms, which all resolve to (2, 1), BFGS hands its first
iterate with sigma_2 tied to sigma_1 within KINK_TOL to Newton steps for the
multiple eigenvalue (Overton 1988), which land on the kink, and the face bound
closes there.  If they miss, BFGS resumes once from their best point.  Only
while the bracket stays open (kinks the Newton step misses, and kinks of p < 2
at k >= 2, which have no face bound) do the budgets act: lockstep multi-start
Polyak-step subgradient descent with one stacked SVD per step, the polish of
the best finals, Nelder-Mead and, for dimension <= GRID_DIM_LIMIT, a batched
grid pass.  Nelder-Mead is the one use of scipy, imported where it runs, so
importing kyfan does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import _sigma_norm, dual_norm, extreme_subgradient
from .subdiff import descriptor, face_min_norm

# a solve stops once f - lower <= GAP_TOL * (1 + f); CERT_TOL is certify_best's
# default bound on ||P_S G||, and polish's BFGS stops only with ||g|| within it
GAP_TOL = CERT_TOL = 1e-7
# oracle calls of the face search at a solve's point (face_min_norm): the face
# bound of Objective.lower_bound and certify_best's certificate search with it
FACE_ITER = 40
# singular values within KINK_TOL * sigma_1 count as tied: polish hands such a
# point to the kink Newton step, which takes them as one multiple eigenvalue
# (the face bound groups as the certificate does, at core.BLOCK_TOL)
KINK_TOL = 1e-4
# the grid pass runs on subspaces of dimension <= GRID_DIM_LIMIT, with (points
# per axis, levels) GRID_FINE on at most 2 real coordinates, else GRID_COARSE
GRID_DIM_LIMIT = 2
GRID_FINE, GRID_COARSE = (33, 14), (9, 12)


def closes(f, lower):
    """Does the bracket [lower, f] prove f optimal to within GAP_TOL?"""
    return f - lower <= GAP_TOL * (1.0 + f)


def _hermitian_basis(t):
    """Orthonormal basis of the t x t Hermitian matrices under Re tr(X Y)."""
    out = []
    for a in range(t):
        for b in range(a, t):
            e = np.zeros((t, t), dtype=complex)
            if a == b:
                e[a, a] = 1.0
                out.append(e)
                continue
            e[a, b] = e[b, a] = np.sqrt(0.5)
            f = np.zeros((t, t), dtype=complex)
            f[a, b], f[b, a] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
            out += [e, f]
    return np.array(out)


class Objective:
    """f(x) = ||A - combine(x)||_spec; every method takes x or a stack of x."""

    def __init__(self, a, subspace, spec):
        self.a = np.asarray(a, dtype=complex)
        self.subspace = subspace
        self.spec = spec
        self.p, self.k = spec.resolve(min(a.shape))  # (2, 1) for every sigma_1 norm
        self.rows = subspace.rows
        self._rows_h = self.rows.conj().T
        self.a_x = subspace.real_coordinates(self.a)  # coordinates of P_S A
        self.evaluations = 0  # residuals formed: values, subgradients, face bounds, Newton steps
        self.sigma = None  # singular values of value_and_grad's last call, for polish's tie test

    def residual(self, x):
        """A - sum_j c_j E_j; x may carry leading stack axes."""
        x = np.asarray(x)
        self.evaluations += int(np.prod(x.shape[:-1]))
        return self.a - (x @ self.rows).reshape(x.shape[:-1] + self.a.shape)

    def value(self, x):
        return float(_sigma_norm(np.linalg.svd(self.residual(x), compute_uv=False), self.p, self.k))

    def value_many(self, xs):
        return _sigma_norm(np.linalg.svd(self.residual(xs), compute_uv=False), self.p, self.k)

    def pullback(self, g):
        """Gradient in x of Re tr(G* R(x)): -Re tr(G* row_i); g may be a stack."""
        return -(g.reshape(g.shape[:-2] + (-1,)) @ self._rows_h).real

    def value_and_grad(self, x):
        """f(x) and a pulled-back subgradient from one SVD of the residual.

        The subgradient is the extreme point U_k diag((sigma_i/f)^(p-1)) V_k* of
        the (p, k) norm for every p >= 1 (norms.extreme_subgradient), the exact
        gradient wherever the norm is differentiable.  At p = 1, 0**0 = 1 keeps
        the singular pairs of zero singular values among the top k; at a zero
        residual this gives U_k V_k*, also a subgradient there, and 0 for p > 1.
        A stack of points gives a stack of values and gradients; one point
        gives a float and a vector.
        """
        u, s, vh = np.linalg.svd(self.residual(x), full_matrices=False)
        self.sigma = s
        f = _sigma_norm(s, self.p, self.k)
        g = self.pullback(extreme_subgradient(u, s, vh, f, self.p, self.k))
        return (float(f), g) if np.ndim(x) == 1 else (f, g)

    def lower_bound(self, x, f, g):
        """Lower bound on min f at x from f and the pulled-back subgradient g there.

        Returns (lower, kind).  Every F orthogonal to the subspace gives
        Re<F, A> / ||F||_dual <= ||A - Y|| for all Y in it (Hoelder).  The
        "hoelder" bound takes F = G - P_S G for the fused extreme subgradient G:
        Re<F, A> = f + g.(a_x - x) and ||F||_dual <= 1 + sqrt(n0) ||g||, no SVD.
        Where that leaves the bracket open, the "face" bound takes G in the face
        at the residual, with the least ||P_S G|| (face_min_norm), and the exact
        dual norm of F.  At a kink optimum the extreme G misses the orthogonal
        complement and this G meets it.  The face groups singular values at
        core.BLOCK_TOL, as the certificate's does: grouped more widely, values
        split by more than that count as tied, and the bound closes at points
        near a kink that certify_best cannot certify.  The
        face bound counts only when ||P_S G|| <= face_tol(f), which moves it by
        at most GAP_TOL (1 + f) / 2.  It is tight to second order in
        ||P_S G||, so it would close earlier, but then at points that
        certify_best cannot certify.  The search itself is the certificate's
        (subspace_certificate at the residual, FACE_ITER oracle calls).  The
        face is described for p >= 2 only, so below that the bound is
        Hoelder's; a sigma_1 norm resolves to p = 2.
        """
        low = self.hoelder(x, f, g)
        if closes(f, low) or self.p < 2:
            return low, "hoelder"
        desc = descriptor(self.residual(x), self.p, self.k)
        tol = self.face_tol(f)
        face = face_min_norm(desc, self.rows, tol=tol, max_iter=FACE_ITER)
        gx = self.subspace.real_coordinates(face.g)  # coordinates of P_S G
        dual = dual_norm(face.g - (gx @ self.rows).reshape(self.a.shape), self.spec)
        if face.residual <= tol and dual > 0.0:
            face_low = float((np.vdot(face.g, self.a).real - gx @ self.a_x) / dual)
            if face_low > low:
                return face_low, "face"
        return low, "hoelder"

    def hoelder(self, x, f, g):
        """The Hoelder bound of lower_bound, from f and g alone: no SVD."""
        n0 = min(self.a.shape)
        return max(0.0, float((f + g @ (self.a_x - x)) / (1.0 + np.sqrt(n0) * np.linalg.norm(g))))

    def face_tol(self, f):
        """The ||P_S G|| up to which the face bound counts (polish: and CERT_TOL)."""
        return GAP_TOL * (1.0 + f) / (4.0 * np.sqrt(min(self.a.shape)) * f) if f > 0 else np.inf

    def newton_step(self, x, mult=None, t=None):
        """Newton step for sigma_1 = lambda_max(M(x)) at a multiple eigenvalue (Overton 1988).

        M(x) = [[0, R], [R*, 0]] and M_i = dM/dx_i = -[[0, E_i], [E_i*, 0]].  With
        M = Q diag(lambda) Q*, Q_1 the leading eigenvectors (at least t, and at
        least those within KINK_TOL of lambda_1) and Q_2 the rest, the step
        solves the KKT system of min omega + d.W d / 2 subject to
        Lambda_1 + sum_i d_i Q_1* M_i Q_1 = omega I:
            W d + J^T u = 0,   tr U = 1,   J d - omega vec(I) = -vec(Lambda_1),
        with W_ij = 2 Re tr(U C_i D C_j*), C_i = Q_1* M_i Q_2 and
        D = diag(1 / (mean(lambda_1..t) - lambda_j)).  U is the t x t Hermitian
        multiplier, u its coordinates in an orthonormal basis.  mult carries it
        between calls as Q_1 U Q_1*, so that it follows the eigenvectors; W
        takes its compression to the new Q_1, rescaled to trace 1, or I / t when
        there is none.  Only valid for k = 1.  Returns (d, new mult, t).
        """
        r = self.residual(x)
        m, n = r.shape
        mx = np.zeros((m + n, m + n), dtype=complex)
        mx[:m, m:] = r
        mx[m:, :m] = r.conj().T
        lam, q = np.linalg.eigh(mx)
        lam, q = lam[::-1], q[:, ::-1]
        t = max(t or 0, int(np.sum(lam >= lam[0] - KINK_TOL * lam[0])))
        q1 = q[:, :t]
        u = np.eye(t) / t
        if mult is not None:
            uc = q1.conj().T @ mult @ q1
            if np.trace(uc).real > 0.0:
                u = uc / np.trace(uc).real
        xi = q[:m].conj().T @ self.rows.reshape(-1, m, n) @ q[m:]
        qmq = -(xi + xi.conj().transpose(0, 2, 1))  # Q* M_i Q, one per coordinate
        c = qmq[:, :t, t:]
        dinv = 1.0 / (np.mean(lam[:t]) - lam[t:])
        w = 2.0 * np.einsum("iab,b,jab->ij", u @ c, dinv, c.conj()).real
        basis = _hermitian_basis(t)
        jac = np.einsum("kab,iba->ki", basis, qmq[:, :t, :t]).real  # Re tr(B_k J_i)
        eye = np.trace(basis, axis1=1, axis2=2).real
        lam1 = np.einsum("kaa,a->k", basis, lam[:t]).real
        d, h = len(x), len(basis)
        kkt = np.zeros((d + 1 + h, d + 1 + h))
        kkt[:d, :d] = w
        kkt[:d, d + 1:] = jac.T
        kkt[d, d + 1:] = eye
        kkt[d + 1:, :d] = jac
        kkt[d + 1:, d] = -eye
        rhs = np.concatenate([np.zeros(d), [1.0], -lam1])
        z = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        return z[:d], q1 @ np.tensordot(z[d + 1:], basis, axes=1) @ q1.conj().T, t


def polyak_descent(fg, x0, iters=150):
    """Subgradient descent with Polyak-style steps off the best value seen.

    x0 is an (S, d) stack of starts that descend in lockstep, one call of fg
    per step for all of them; fg(xs) returns (values, subgradients).
    Each start keeps its own best point and slack, and stops moving once its
    subgradient vanishes.  Returns the (S, d) best points and their values.
    """
    x = np.array(x0, dtype=float)
    fx, g = fg(x)
    best_x, best_f = x.copy(), np.array(fx, dtype=float)
    slack = 0.1 * (1.0 + np.abs(fx))
    live = np.ones(len(x), dtype=bool)
    for _ in range(iters):
        gn = np.einsum("ij,ij->i", g, g)
        live &= gn >= 1e-30
        if not live.any():
            break
        step = np.where(live, fx - best_f + slack, 0.0) / np.where(live, gn, 1.0)
        x = x - step[:, None] * g
        fx, g = fg(x)
        better = fx < best_f
        best_f[better] = fx[better]
        best_x[better] = x[better]
        slack *= 0.93
    return best_x, best_f


def bfgs(obj, x, handoff):
    """BFGS on obj.value_and_grad from x, with a weak Wolfe line search.

    A weak Wolfe step (decrease 1e-4, curvature 0.9) exists on a kink, where
    the strong Wolfe test cannot be met (Lewis & Overton 2013): doubling
    brackets it, bisection finds it.  The
    inverse Hessian starts at I, rescaled by s.y / y.y at the first update
    (Nocedal & Wright eq. 6.20); a pair with s.y <= 0 is not taken.  Every
    iterate, the start included, is tested from its own evaluation: the run
    stops where the Hoelder bound closes the bracket with ||g|| <=
    min(obj.face_tol(f), CERT_TOL), so that certify_best certifies it; with
    handoff, where sigma_2 >= sigma_1 (1 - KINK_TOL); and at max |g_i| <=
    1e-12, after 300 iterations or when a line search fails in 60 trials.
    Returns (x, f, g, tied) at the last accepted iterate; tied says that the
    run stopped for the hand-off.
    """
    f, g = obj.value_and_grad(x)
    sigma, h = obj.sigma, None  # h: the inverse Hessian, I until the first update
    for _ in range(300):
        if closes(f, obj.hoelder(x, f, g)) and np.linalg.norm(g) <= min(obj.face_tol(f), CERT_TOL):
            break
        if handoff and sigma.size > 1 and sigma[1] >= sigma[0] * (1.0 - KINK_TOL):
            return x, f, g, True
        d = -g if h is None else -h @ g
        slope = g @ d
        if np.max(np.abs(g)) <= 1e-12 or not slope < 0.0:
            break
        lo, hi, t = 0.0, np.inf, 1.0
        for _ in range(60):
            y = x + t * d
            fy, gy = obj.value_and_grad(y)
            if not fy <= f + 1e-4 * t * slope:
                hi = t
            elif gy @ d < 0.9 * slope:
                lo = t
            else:
                break
            t = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
        else:
            break
        s, dg = y - x, gy - g
        sy = s @ dg
        if sy > 0.0:
            if h is None:
                h = np.eye(x.size) * (sy / (dg @ dg))
            v = np.eye(x.size) - np.outer(s, dg) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
        x, f, g, sigma = y, fy, gy, obj.sigma
    return x, f, g, False


def polish(obj, x0):
    """Local refinement of the Objective obj from x0: bfgs, then Nelder-Mead on obj.value.

    bfgs stops at the first iterate whose bracket closes certifiably; else the
    bracket is checked at its final point and, for k = 1, after each
    accepted kink Newton step.  For k = 1 bfgs also stops at its first
    iterate with sigma_2 >= sigma_1 (1 - KINK_TOL) and hands it to
    kink_newton.  If kink_newton does not close the bracket, bfgs resumes once
    from its best point without the hand-off and the path above runs to its
    end.  Only a bracket still open reaches Nelder-Mead, the one use of scipy,
    which is imported there.  Returns (x, f, bracket): bracket is
    obj.lower_bound's (lower, kind) once closed, else None after Nelder-Mead.
    """
    x = np.asarray(x0, dtype=float).copy()
    for handoff in (obj.k == 1, False):
        x, f, g, tied = bfgs(obj, x, handoff)
        bracket = obj.lower_bound(x, f, g)
        if closes(f, bracket[0]):
            return x, f, bracket
        if obj.k == 1:
            x, f, bracket = kink_newton(obj, x, f)
            if bracket is not None:
                return x, f, bracket
        if not tied:
            break
    from scipy.optimize import minimize

    res = minimize(obj.value, x, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15,
                            "maxiter": 400 * x.size, "maxfev": 400 * x.size})
    if res.fun < f:
        x, f = np.asarray(res.x), float(res.fun)
    return x, f, None


def kink_newton(obj, x, f):
    """Up to 12 Objective.newton_step steps from x, carrying the multiplier.

    The iterates are not monotone in f: a step that lands a little off the tie
    manifold raises f by its second-order error, and the next one recovers.
    So every step is taken, and a point is accepted when f does not rise
    above round-off of the best accepted value; the bracket is checked there.
    A rise beyond 1e-6 of f means the step fixed too few tied values (polish
    hands over a point tied within KINK_TOL, but a resumed BFGS can end
    farther from the tie): the next singular value joins the multiplicity t
    and the steps restart from the best point.
    Returns (x, f, bracket) at the first accepted point whose bracket closes,
    else (best point, its value, None).
    """
    mult, t, y = None, None, x
    for _ in range(12):
        d, mult, t = obj.newton_step(y, mult, t)
        y = y + d
        fy, g = obj.value_and_grad(y)
        if fy <= f * (1.0 + 1e-14):
            x, f = y, fy
            bracket = obj.lower_bound(x, f, g)
            if closes(f, bracket[0]):
                return x, f, bracket
        elif fy > f * (1.0 + 1e-6) and t < min(obj.a.shape):
            mult, t, y = None, t + 1, x
    return x, f, None


def grid_refine(fun_many, center, halfwidth):
    """Coarse-to-fine box search; fun_many evaluates a stack of points."""
    center = np.asarray(center, dtype=float).copy()
    pts, levels = GRID_FINE if center.size <= 2 else GRID_COARSE
    h = float(halfwidth)
    best_x, best_f = center.copy(), float(fun_many(center[None])[0])
    for _ in range(levels):
        axes = [np.linspace(c - h, c + h, pts) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        xs = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.asarray(fun_many(xs))
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_f = float(vals[i])
            best_x = xs[i].copy()
        center = best_x.copy()
        h *= 1.75 / (pts - 1)  # keep overlap so the true minimizer stays inside
    return best_x, best_f


@dataclass
class MultiStartOutcome:
    x: np.ndarray
    value: float
    start_values: list
    starts_run: int
    iterations: int     # Polyak steps run: 0 when the first polish closed the bracket
    gap: float          # best vs worst start after local work
    converged: bool
    duality_gap: float | None  # value - lower bound when the bracket closed
    bound: str | None          # the bound that closed it: "hoelder" or "face"


def default_starts(obj, starts, seed):
    """Deterministic start list: zero, the Frobenius projection, seeded Gaussians."""
    d, ls = len(obj.rows), obj.a_x
    out = [np.zeros(d), ls]
    rng = np.random.default_rng(seed)
    scale = 1.0 + np.linalg.norm(ls)
    while len(out) < starts:
        out.append(ls + scale * rng.standard_normal(d))
    return out[:max(2, starts)]


def multistart_minimize(obj, starts=50, iters=150, seed=0, extra_starts=()):
    """Full pipeline on an Objective; deterministic for fixed inputs.

    The problem is convex, so a polished point whose bracket closes is optimal:
    the start of least value is polished first.  Only while its bracket stays
    open do starts and iters act as budgets: all starts descend in lockstep,
    the 3 best finals are polished in order until a bracket closes, and
    subspaces of dimension <= GRID_DIM_LIMIT get the grid pass.
    """
    xs = np.array(default_starts(obj, starts, seed) + list(extra_starts), dtype=float)
    fs = obj.value_many(xs)
    polished, steps = [polish(obj, xs[np.argmin(fs)])], 0
    if polished[0][2] is None:
        xs, fs = polyak_descent(obj.value_and_grad, xs, iters=iters)
        steps = iters
        for i in np.argsort(fs, kind="stable")[:3]:
            polished.append(polish(obj, xs[i]))
            if polished[-1][2] is not None:
                break
    finals = [(float(fs[i]), xs[i]) for i in np.argsort(fs, kind="stable")]
    best_f, best_x = min([(f, x) for x, f, _ in polished] + finals, key=lambda t: t[0])
    brackets = [b for _, _, b in polished if b is not None]

    # a closed bracket proves optimality; the grid pass is for an open one
    used_grid = False
    if not brackets and obj.subspace.dim <= GRID_DIM_LIMIT:
        used_grid = True
        halfwidth = 2.0 * (1.0 + np.linalg.norm(best_x) + np.linalg.norm(obj.a))
        gx, gf = grid_refine(obj.value_many, best_x, halfwidth)
        if gf < best_f:
            best_x, best_f = gx, gf
        x2, f2, bracket = polish(obj, best_x)
        if f2 < best_f:
            best_x, best_f = x2, f2
        brackets += [] if bracket is None else [bracket]

    start_vals = [f for f, _ in finals]
    gap = float(start_vals[-1] - start_vals[0]) if start_vals else 0.0
    near = sum(1 for f in start_vals if f <= best_f + 1e-5 * (1.0 + abs(best_f)))
    converged = bool(brackets) or used_grid or near >= min(3, len(start_vals))
    low, kind = max(brackets, key=lambda b: b[0]) if brackets else (None, None)
    return MultiStartOutcome(
        x=best_x, value=float(best_f), start_values=start_vals,
        starts_run=len(xs), iterations=steps, gap=gap, converged=converged,
        duality_gap=None if low is None else float(best_f - low), bound=kind)
