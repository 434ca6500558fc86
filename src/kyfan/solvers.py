"""Shared minimization machinery for the approximation routines.

The objective c -> ||A - sum c_j E_j||_spec is convex on the real coordinate
vector of c.  The workhorse is multi-start Polyak-step subgradient descent,
followed by a smooth polish (BFGS with the exact gradient where the norm is
differentiable, Nelder-Mead at kinks) and, for low-dimensional subspaces, a
coarse-to-fine grid pass evaluated with batched SVDs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .norms import norm
from .subdiff import canonical_extreme, descriptor


def real_dim(subspace):
    return subspace.dim * (2 if subspace.field == "complex" else 1)


def coeffs_of_x(x, subspace):
    x = np.asarray(x, dtype=float)
    if subspace.field == "complex":
        return x[0::2] + 1j * x[1::2]
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
    """f(x) = ||A - combine(x)||_spec with batched evaluation and subgradients."""

    def __init__(self, a, subspace, spec):
        self.a = np.asarray(a, dtype=complex)
        self.subspace = subspace
        self.spec = spec
        self.basis = np.stack(subspace.onb) if subspace.dim else np.zeros((0,) + a.shape)
        n0 = min(a.shape)
        self.p, self.k = spec.resolve(n0)
        # p = None means the norm reduces to sigma_1, whose subdifferential is
        # the (2, 1) family; descriptors need p >= 2 either way
        self.p_eff, self.k_eff = (2.0, 1) if self.p is None else (self.p, self.k)
        self.smooth = self.p_eff >= 2

    def residual(self, x):
        c = coeffs_of_x(x, self.subspace)
        if not self.subspace.dim:
            return self.a.copy()
        return self.a - np.tensordot(c, self.basis, axes=(0, 0))

    def value(self, x):
        return norm(self.residual(x), self.spec)

    def value_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        if not self.subspace.dim:
            return np.full(xs.shape[0], norm(self.a, self.spec))
        if self.subspace.field == "complex":
            cs = xs[:, 0::2] + 1j * xs[:, 1::2]
        else:
            cs = xs.astype(complex)
        r = self.a[None, :, :] - np.tensordot(cs, self.basis, axes=(1, 0))
        return norm(r, self.spec)

    def subgrad(self, x):
        """Pulled-back subgradient; exact gradient wherever the norm is smooth.

        Needs p >= 2 (the subdifferential descriptor); returns None otherwise.
        """
        if not self.smooth:
            return None
        r = self.residual(x)
        desc = descriptor(r, self.p_eff, self.k_eff)
        if desc.at_zero:
            return np.zeros(real_dim(self.subspace))
        g = canonical_extreme(desc)
        out = np.empty(real_dim(self.subspace))
        for j, e in enumerate(self.subspace.onb):
            pair = complex(np.trace(g.conj().T @ e))
            if self.subspace.field == "complex":
                out[2 * j] = -pair.real
                out[2 * j + 1] = pair.imag
            else:
                out[j] = -pair.real
        return out


def polyak_descent(fun, grad, x0, iters=150, f_target_slack=None):
    """Subgradient descent with Polyak-style steps off the best value seen."""
    x = np.asarray(x0, dtype=float).copy()
    fx = fun(x)
    best_x, best_f = x.copy(), fx
    slack = f_target_slack if f_target_slack is not None else 0.1 * (1.0 + abs(fx))
    for t in range(iters):
        g = grad(x)
        if g is None:
            break
        gn = float(np.dot(g, g))
        if gn < 1e-30:
            break
        step = (fx - best_f + slack) / gn
        x = x - step * g
        fx = fun(x)
        if fx < best_f:
            best_f, best_x = fx, x.copy()
        slack *= 0.93
    return best_x, best_f


def polish(fun, grad, x0, smooth=True):
    """Local refinement: BFGS on the smooth path plus a Nelder-Mead pass."""
    best_x = np.asarray(x0, dtype=float).copy()
    best_f = fun(best_x)
    if best_x.size == 0:
        return best_x, best_f
    if smooth and grad is not None:
        try:
            res = minimize(fun, best_x, jac=grad, method="BFGS",
                           options={"gtol": 1e-12, "maxiter": 300})
            if res.fun < best_f:
                best_x, best_f = np.asarray(res.x), float(res.fun)
        except Exception:
            pass
    res = minimize(fun, best_x, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15,
                            "maxiter": 400 * best_x.size, "maxfev": 400 * best_x.size})
    if res.fun < best_f:
        best_x, best_f = np.asarray(res.x), float(res.fun)
    return best_x, best_f


def grid_refine(fun_many, center, halfwidth, levels=None, pts=None):
    """Coarse-to-fine box search; fun_many evaluates a stack of points."""
    center = np.asarray(center, dtype=float).copy()
    d = center.size
    if d == 0:
        return center, float(fun_many(center[None])[0])
    if pts is None:
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
    per_start_x: list


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


def multistart_minimize(obj, starts=50, iters=150, seed=0, tol=1e-8,
                        grid_dim_limit=2, extra_starts=()):
    """Full pipeline on an Objective; deterministic for fixed inputs."""
    xs = default_starts(obj, starts, seed)
    xs = list(xs) + [np.asarray(e, dtype=float) for e in extra_starts]
    smooth = obj.smooth
    finals = []
    for x0 in xs:
        if smooth:
            x1, f1 = polyak_descent(obj.value, obj.subgrad, x0, iters=iters)
        else:
            x1, f1 = x0, obj.value(x0)
        finals.append((f1, x1))
    finals.sort(key=lambda t: t[0])
    # polish the best starts; without subgradients the polish does all the work
    polished = []
    for f1, x1 in finals[: 3 if smooth else 8]:
        x2, f2 = polish(obj.value, obj.subgrad if smooth else None, x1)
        polished.append((f2, x2))
    best_f, best_x = min(polished + finals, key=lambda t: t[0])[:2]

    used_grid = False
    if obj.subspace.dim and obj.subspace.dim <= grid_dim_limit:
        used_grid = True
        halfwidth = 2.0 * (1.0 + np.linalg.norm(best_x) + np.linalg.norm(obj.a))
        gx, gf = grid_refine(obj.value_many, best_x, halfwidth)
        if gf < best_f:
            best_x, best_f = gx, gf
        x2, f2 = polish(obj.value, obj.subgrad if smooth else None, best_x)
        if f2 < best_f:
            best_x, best_f = x2, f2

    start_vals = [f for f, _ in finals]
    gap = float(start_vals[-1] - start_vals[0]) if start_vals else 0.0
    near = sum(1 for f in start_vals if f <= best_f + 1e-5 * (1.0 + abs(best_f)))
    converged = used_grid or near >= min(3, len(start_vals))
    return MultiStartOutcome(
        x=best_x, value=float(best_f), start_values=start_vals,
        starts_run=len(xs), iterations=iters, gap=gap, converged=converged,
        per_start_x=[x for _, x in finals])
