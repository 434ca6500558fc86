"""Shared minimization machinery for the approximation routines.

The objective c -> ||A - sum c_j E_j||_spec is convex on the real coordinate
vector x of c.  Objective keeps one row per real coordinate (E_j, and iE_j
after it for a complex field), so a residual and a pull-back are one matrix
product each, on one point or on a stack of points.  Each point costs one SVD
of the residual R = U diag(sigma) V*: it gives the value and, for p >= 2, the
closed-form extreme subgradient U_k diag((sigma_i/||R||)^(p-1)) V_k*.  The
workhorse is multi-start Polyak-step subgradient descent on that fused value
and subgradient, all starts in lockstep with one stacked SVD per step,
followed by a smooth polish (BFGS with the exact gradient where the norm is
differentiable).  Its last subgradient gives a Hoelder lower bound on the
minimum; once the bracket [lower, f] is within GAP_TOL the solve stops.  Only
while it is open (kinks, p < 2) do Nelder-Mead and, for low-dimensional
subspaces, a coarse-to-fine grid pass evaluated with batched SVDs run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .norms import _sigma_norm

# a solve stops once f - lower <= GAP_TOL * (1 + f)
GAP_TOL = 1e-7


def real_dim(subspace):
    return subspace.dim * (2 if subspace.field == "complex" else 1)


def coeffs_of_x(x, subspace):
    x = np.asarray(x, dtype=float)
    if subspace.field == "complex":
        return x[..., 0::2] + 1j * x[..., 1::2]
    return x.copy()


def x_of_coeffs(c, subspace):
    c = np.asarray(c)
    if subspace.field == "complex":
        x = np.empty(2 * c.size)
        x[0::2] = np.real(c)
        x[1::2] = np.imag(c)
        return x
    return np.real(c).astype(float)


class Objective:
    """f(x) = ||A - combine(x)||_spec; every method takes x or a stack of x."""

    def __init__(self, a, subspace, spec):
        self.a = np.asarray(a, dtype=complex)
        self.subspace = subspace
        self.spec = spec
        self.p, self.k = spec.resolve(min(a.shape))
        # p = None means the norm reduces to sigma_1, whose extreme subgradients
        # are those of the (2, 1) norm; the closed form below needs p >= 2
        self.p_eff, self.k_eff = (2.0, 1) if self.p is None else (self.p, self.k)
        self.smooth = self.p_eff >= 2
        onb = np.asarray(subspace.onb, dtype=complex).reshape(subspace.dim, self.a.size)
        if subspace.field == "complex":
            onb = np.stack([onb, 1j * onb], axis=1).reshape(-1, self.a.size)
        self.rows = onb  # row i is the matrix that real coordinate x_i multiplies
        self._rows_h = onb.conj().T
        self.a_x = (onb.conj() @ self.a.ravel()).real  # coordinates of P_S A

    def residual(self, x):
        """A - sum_j c_j E_j; x may carry leading stack axes."""
        x = np.asarray(x)
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
        the (p, k) norm, the exact gradient wherever the norm is smooth; 0 at a
        zero residual and None for p < 2.  A stack of points gives a stack of
        values and gradients; one point gives a float and a vector.
        """
        u, s, vh = np.linalg.svd(self.residual(x), full_matrices=False)
        f = _sigma_norm(s, self.p, self.k)
        g = None
        if self.smooth:
            k = self.k_eff
            ratio = s[..., :k] / np.where(f > 0, f, 1.0)[..., None]
            g = self.pullback((u[..., :k] * ratio[..., None, :] ** (self.p_eff - 1.0)) @ vh[..., :k, :])
        return (float(f), g) if np.ndim(x) == 1 else (f, g)

    def lower_bound(self, x, f, g):
        """Lower bound on min f from f and the pulled-back subgradient g at x.

        F = G - P_S G is orthogonal to the subspace, Re<F, A> = f + g.(a_x - x)
        and ||F||_dual <= 1 + ||P_S G||_* <= 1 + sqrt(n0) ||g||, so by Hoelder
        Re<F, A> / ||F||_dual <= ||A - Y|| for every Y in the subspace.
        """
        scale = 1.0 + np.sqrt(min(self.a.shape)) * np.linalg.norm(g)
        return max(0.0, float((f + g @ (self.a_x - x)) / scale))


def polyak_descent(fg, x0, iters=150):
    """Subgradient descent with Polyak-style steps off the best value seen.

    x0 is an (S, d) stack of starts that descend in lockstep, one call of fg
    per step for all of them; fg(xs) returns (values, subgradients or None).
    Each start keeps its own best point and slack, and stops moving once its
    subgradient vanishes.  Returns the (S, d) best points and their values.
    """
    x = np.array(x0, dtype=float)
    fx, g = fg(x)
    best_x, best_f = x.copy(), np.array(fx, dtype=float)
    if g is None:
        return best_x, best_f
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


def polish(fun, fg, x0, lower=None):
    """Local refinement: BFGS on fg (value and gradient) when given, then Nelder-Mead on fun.

    Returns (x, f, low); low = lower(x, f, g) at BFGS's final point, when it
    closes the bracket and Nelder-Mead is skipped, else None."""
    best_x = np.asarray(x0, dtype=float).copy()
    best_f = fun(best_x)
    if best_x.size == 0:
        return best_x, best_f, None
    if fg is not None:
        try:
            res = minimize(fg, best_x, jac=True, method="BFGS",
                           options={"gtol": 1e-12, "maxiter": 300})
        except Exception:
            res = None
        if res is not None and res.fun <= best_f:
            best_x, best_f = np.asarray(res.x), float(res.fun)
            low = None if lower is None else lower(best_x, best_f, res.jac)
            if low is not None and best_f - low <= GAP_TOL * (1.0 + best_f):
                return best_x, best_f, low
    res = minimize(fun, best_x, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15,
                            "maxiter": 400 * best_x.size, "maxfev": 400 * best_x.size})
    if res.fun < best_f:
        best_x, best_f = np.asarray(res.x), float(res.fun)
    return best_x, best_f, None


def grid_refine(fun_many, center, halfwidth, levels=None):
    """Coarse-to-fine box search; fun_many evaluates a stack of points."""
    center = np.asarray(center, dtype=float).copy()
    d = center.size
    if d == 0:
        return center, float(fun_many(center[None])[0])
    pts = 33 if d <= 2 else 9
    if levels is None:
        levels = 14 if d <= 2 else 12
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
    iterations: int
    gap: float          # best vs worst start after local work
    converged: bool
    duality_gap: float | None  # value - lower bound when the bracket closed


def default_starts(obj, starts, seed):
    """Deterministic start list: zero, the Frobenius projection, seeded Gaussians."""
    d = real_dim(obj.subspace)
    ls = x_of_coeffs(obj.subspace.coefficients(obj.a), obj.subspace) if obj.subspace.dim else np.zeros(0)
    out = [np.zeros(d), ls]
    rng = np.random.default_rng(seed)
    scale = 1.0 + np.linalg.norm(ls)
    while len(out) < starts:
        out.append(ls + scale * rng.standard_normal(d))
    return out[:max(2, starts)]


def multistart_minimize(obj, starts=50, iters=150, seed=0, grid_dim_limit=2,
                        extra_starts=()):
    """Full pipeline on an Objective; deterministic for fixed inputs."""
    xs = np.array(default_starts(obj, starts, seed) + list(extra_starts), dtype=float)
    smooth = obj.smooth
    if smooth:
        x1s, f1s = polyak_descent(obj.value_and_grad, xs, iters=iters)
    else:
        x1s, f1s = xs, obj.value_many(xs)
    finals = [(float(f1s[i]), x1s[i]) for i in np.argsort(f1s, kind="stable")]
    # polish the best starts; without subgradients the polish does all the work
    fg = obj.value_and_grad if smooth else None
    polished = [polish(obj.value, fg, x1, obj.lower_bound)
                for _, x1 in finals[: 3 if smooth else 8]]
    best_f, best_x = min([(f, x) for x, f, _ in polished] + finals, key=lambda t: t[0])
    lows = [low for _, _, low in polished if low is not None]

    # a closed bracket proves optimality; the grid pass is for an open one
    used_grid = False
    if not lows and obj.subspace.dim and obj.subspace.dim <= grid_dim_limit:
        used_grid = True
        halfwidth = 2.0 * (1.0 + np.linalg.norm(best_x) + np.linalg.norm(obj.a))
        gx, gf = grid_refine(obj.value_many, best_x, halfwidth)
        if gf < best_f:
            best_x, best_f = gx, gf
        x2, f2, low = polish(obj.value, fg, best_x, obj.lower_bound)
        if f2 < best_f:
            best_x, best_f = x2, f2
        lows += [] if low is None else [low]

    start_vals = [f for f, _ in finals]
    gap = float(start_vals[-1] - start_vals[0]) if start_vals else 0.0
    near = sum(1 for f in start_vals if f <= best_f + 1e-5 * (1.0 + abs(best_f)))
    converged = bool(lows) or used_grid or near >= min(3, len(start_vals))
    return MultiStartOutcome(
        x=best_x, value=float(best_f), start_values=start_vals,
        starts_run=len(xs), iterations=iters, gap=gap, converged=converged,
        duality_gap=float(best_f - max(lows)) if lows else None)
