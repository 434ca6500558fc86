"""Shared helpers: random instances and independent brute-force oracles."""

import numpy as np
import pytest

from kyfan.norms import NormSpec, norm


def rand_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def rand_with_sigma(rng, sigma, m=None, n=None):
    """Matrix with prescribed singular values (Haar factors)."""
    sigma = np.asarray(sigma, dtype=float)
    n0 = sigma.size
    m = m or n0
    n = n or n0
    q1, _ = np.linalg.qr(rand_complex(rng, m, m))
    q2, _ = np.linalg.qr(rand_complex(rng, n, n))
    d = np.zeros((m, n))
    d[:n0, :n0] = np.diag(sigma)
    return q1 @ d @ q2.conj().T


def tied_probe(rng, count):
    """Yield (a, p, g0): sigma_2 = sigma_3 = sigma_4 (n = 4..6), k = 2, and g0 an
    extreme point sampled from the face, so the fantope part of the face is free."""
    from kyfan.subdiff import descriptor, sample_extreme

    for t in range(count):
        n = 4 + t % 3
        sigma = np.sort(rng.uniform(0.3, 3.0, n))[::-1]
        sigma[2] = sigma[3] = sigma[1]
        a = rand_with_sigma(rng, sigma)
        p = (2.0, 3.0, 4.0)[t % 3]
        yield a, p, sample_extreme(descriptor(a, p, 2), seed=t)


def orthogonal_to(rng, g):
    """A random matrix b with tr(g* b) = 0."""
    c = rand_complex(rng, *g.shape)
    return c - (np.vdot(g, c) / np.vdot(g, g)) * g


def fd_derivative(a, x, spec, t=1e-6):
    """One-sided finite difference of the norm along x."""
    return (norm(a + t * x, spec) - norm(a, spec)) / t


def lambda_min_norm(a, b, spec, levels=6, pts=41, radius=None):
    """Brute-force min over complex lambda of ||a + lambda b|| (convex in
    (Re, Im), so coarse-to-fine grids converge)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na = norm(a, spec)
    nb = norm(b, spec)
    if nb == 0:
        return na, 0.0 + 0.0j
    h = radius if radius is not None else 2.5 * na / nb + 1.0
    cx = cy = 0.0
    best = na
    best_l = 0.0 + 0.0j
    for _ in range(levels):
        xs = np.linspace(cx - h, cx + h, pts)
        ys = np.linspace(cy - h, cy + h, pts)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        lam = (gx + 1j * gy).ravel()
        stack = a[None, :, :] + lam[:, None, None] * b[None, :, :]
        vals = norm(stack, spec)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_l = complex(lam[i])
        cx, cy = float(lam[i].real), float(lam[i].imag)
        h *= 2.2 / (pts - 1)
    return best, best_l


def dual_gauge_oracle(d, p, k, levels=10, pts=41):
    """Brute-force dual gauge for k <= 3: maximize over the monotone p-ball.

    psi*(d) = max sum_i y_i w_i over y_1 >= ... >= y_k >= 0, ||y||_p <= 1,
    with w = (d_1, ..., d_{k-1}, sum_{i>=k} d_i).  The objective is
    scale-invariant after radial normalization, so the grid runs over
    directions u with u_1 = 1; every grid point is exactly feasible.
    """
    d = np.sort(np.abs(np.asarray(d, dtype=float)))[::-1]
    w = np.concatenate([d[: k - 1], [d[k - 1:].sum()]])
    assert k <= 3
    if k == 1 or not np.any(w > 0):
        return float(w[0])
    m = k - 1
    lo = np.zeros(m)
    hi = np.ones(m)
    best = 0.0
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(m)]
        mesh = np.meshgrid(*axes, indexing="ij")
        tail = np.stack([g.ravel() for g in mesh], axis=1)
        ok = np.all(tail[:, :-1] >= tail[:, 1:] - 1e-12, axis=1) if m > 1 else np.ones(len(tail), bool)
        u = np.concatenate([np.ones((len(tail), 1)), tail], axis=1)
        vals = (u @ w) / np.sum(u ** p, axis=1) ** (1.0 / p)
        vals[~ok] = -np.inf
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
        c = tail[i]
        span = (hi - lo) * 1.6 / (pts - 1)
        lo = np.maximum(0.0, c - span)
        hi = np.minimum(1.0, c + span)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
