"""Ky Fan p-k norms and their duals.

||A||_(p,k) = (sigma_1^p + ... + sigma_k^p)^(1/p).  Special members:
spectral = sigma_1, schatten(p) = kyfan(p, n0), trace = kyfan(1, n0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_matrix
from .errors import InvalidInputError

# p beyond this behaves like the spectral norm in float64; callers get redirected
P_CAP = 1e6


@dataclass(frozen=True)
class NormSpec:
    """Which unitarily invariant norm to use.

    family is 'kyfan' or 'spectral'.  k = None means "all singular values of
    the operand" (Schatten), resolved per matrix at evaluation time.
    """

    family: str
    p: float | None = None
    k: int | None = None

    @staticmethod
    def kyfan(p, k):
        return NormSpec("kyfan", float(p), int(k))

    @staticmethod
    def spectral():
        return NormSpec("spectral")

    @staticmethod
    def schatten(p):
        return NormSpec("kyfan", float(p), None)

    @staticmethod
    def trace():
        return NormSpec("kyfan", 1.0, None)

    def resolve(self, n0):
        """Concrete (p, k) for a matrix with n0 singular values."""
        if self.family == "spectral":
            return None, 1
        if self.family != "kyfan":
            raise InvalidInputError("unknown norm family %r" % self.family)
        p = self.p
        if p is None or not np.isfinite(p) or p < 1:
            raise InvalidInputError("kyfan norm needs finite p >= 1")
        k = n0 if self.k is None else int(self.k)
        if not 1 <= k <= n0:
            raise InvalidInputError("k must lie in [1, %d], got %d" % (n0, k))
        if p > P_CAP:
            return None, k  # spectral limit; sum over top k degenerates to sigma_1
        return p, k

    def label(self):
        if self.family == "spectral":
            return "spectral"
        if self.k is None:
            return "schatten:p=%g" % self.p
        return "kyfan:p=%g,k=%d" % (self.p, self.k)


def _sigma_norm(sigma, p, k):
    # overflow-safe (sum sigma_i^p)^(1/p) on leading-axis stacks of sigma vectors
    top = sigma[..., :k]
    s1 = top[..., 0]
    if p is None:  # spectral limit
        return s1
    # a zero spectrum divides by 1 and gives 0
    scale = np.where(s1 > 0, s1, 1.0)
    return s1 * np.sum((top / scale[..., None]) ** p, axis=-1) ** (1.0 / p)


def extreme_subgradient(u, sigma, vh, f, p, k):
    """U_k diag((sigma_i / f)^(p-1)) V_k* from the SVD factors (or stacks of them)
    of a matrix of (p, k) norm f: an extreme subgradient, of dual norm 1 and
    pairing f.  The ratios are <= 1, so large p is safe; f = 0 divides by 1."""
    ratio = sigma[..., :k] / np.where(f > 0, f, 1.0)[..., None]
    return (u[..., :k] * ratio[..., None, :] ** (p - 1.0)) @ vh[..., :k, :]


def norm(a, spec):
    """||a||_spec.  `a` may carry leading stack axes (..., m, n); broadcasts."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise InvalidInputError("norm expects a matrix")
    n0 = min(a.shape[-2:])
    p, k = spec.resolve(n0)
    sigma = np.linalg.svd(a, compute_uv=False)
    out = _sigma_norm(sigma, p, k)
    return float(out) if a.ndim == 2 else out


def norm_of_sigma(sigma, spec):
    """Norm value from an already-computed non-increasing singular value vector."""
    sigma = np.asarray(sigma, dtype=float)
    p, k = spec.resolve(sigma.shape[-1])
    return float(_sigma_norm(sigma, p, k)) if sigma.ndim == 1 else _sigma_norm(sigma, p, k)


# ---------------------------------------------------------------------------
# dual norm
#
# By von Neumann duality the matrix dual norm reduces to the vector gauge dual
# psi*(d) = max{ <x, d> : psi(x) <= 1 } on the singular values d of G, with x
# non-negative and non-increasing.  Entries past position k are free up to x_k,
# so with w = (d_1, ..., d_{k-1}, sum_{i>=k} d_i) the problem becomes
#     max <w, y>  over  y_1 >= ... >= y_k >= 0,  sum y_i^p <= 1.
# Closed form (Best & Chakravarti 1990): let PAV(w) be the projection of w onto
# the non-increasing cone by pool-adjacent-violators, with blocks b and block
# means m_b.  Projection onto a cone gives <w - PAV(w), y> <= 0 for every y in
# it, so <w, y> <= <PAV(w), y> = sum_b m_b sum_{i in b} y_i, and Hoelder on the
# blocks bounds that by (sum_b |b| m_b^q)^(1/q) with q = p/(p-1).  The bound is
# attained by y constant on each block, y_b proportional to m_b^(q-1), which is
# non-increasing because the m_b are; on such y, <w, y> = <PAV(w), y>.  The sum
# is taken relative to the largest mean m_1 so that no power over- or
# underflows; p = 1 (q = inf) leaves m_1 itself.
# ---------------------------------------------------------------------------


def _pav_blocks(y):
    # pool adjacent violators of non-increase; returns [(lo, hi, mean)] partition
    out = []  # [lo, hi, mean]
    for i, v in enumerate(np.asarray(y, dtype=float)):
        out.append([i, i + 1, v])
        while len(out) > 1 and out[-2][2] < out[-1][2]:
            lo2, hi2, v2 = out.pop()
            lo1, hi1, v1 = out.pop()
            w1, w2 = hi1 - lo1, hi2 - lo2
            out.append([lo1, hi2, (v1 * w1 + v2 * w2) / (w1 + w2)])
    return [(lo, hi, v) for lo, hi, v in out]


def _dual_gauge(d, p, k):
    """psi*(d) for the kyfan(p,k) gauge; d non-increasing >= 0."""
    d = np.asarray(d, dtype=float)
    k = min(k, d.size)
    if not np.any(d > 0):
        return 0.0
    w = np.concatenate([d[:k - 1], [float(np.sum(d[k - 1:]))]])
    blocks = _pav_blocks(w)
    s = blocks[0][2]  # the largest block mean
    if p <= 1.0:
        return float(s)
    q = p / (p - 1.0)
    total = sum((hi - lo) * (m / s) ** q for lo, hi, m in blocks)
    return float(s * total ** (1.0 / q))


def dual_norm(g, spec):
    """max{ Re tr(G* X) : ||X||_spec <= 1 }, via the vector gauge dual."""
    d = np.linalg.svd(as_matrix(g), compute_uv=False)
    p, k = spec.resolve(d.size)
    if p is None:  # spectral: dual gauge of the sup gauge is the full sum
        return float(np.sum(d))
    return _dual_gauge(d, p, k)
