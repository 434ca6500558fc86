"""Test-only matrix helpers and cross-checks that the library itself does not use."""

import numpy as np

from kyfan.core import CLAMP_REL, _clamp_small, as_matrix
from kyfan.errors import InvalidInputError


def full_right_vectors(a):
    """Full set of right singular vectors (n x n), including a null-space basis."""
    a = as_matrix(a)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    n0 = min(a.shape)
    s_full = np.zeros(a.shape[1])
    s_full[:n0] = _clamp_small(s, s[0] if s.size else 0.0)
    return s_full, vh.conj().T


def herm_eig(h, tol=1e-10):
    """Eigendecomposition of a Hermitian matrix, eigenvalues non-increasing.

    Rejects inputs whose anti-Hermitian part exceeds tol * scale.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise InvalidInputError("herm_eig needs a square matrix")
    scale = max(np.max(np.abs(h)), 1e-300)
    if np.max(np.abs(h - h.conj().T)) > tol * scale:
        raise InvalidInputError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        z = v[i, j]
        if abs(z) > 0:
            v[:, j] = v[:, j] / (z / abs(z))
    return w, v


def psd_power(h, s, tol=1e-10):
    """H^s for PSD Hermitian H, with H^0 = projection onto range(H).

    Eigenvalues below CLAMP_REL * lambda_max are clamped to 0 before powering;
    negative eigenvalues beyond -tol * scale raise InvalidInputError.
    """
    w, v = herm_eig(h, tol=tol)
    scale = max(abs(w[0]) if w.size else 0.0, 1e-300)
    if w.size and w[-1] < -tol * scale:
        raise InvalidInputError("matrix is not PSD: min eigenvalue %g" % w[-1])
    w = np.clip(w, 0.0, None)
    w[w < CLAMP_REL * (w[0] if w.size else 0.0)] = 0.0
    if s == 0:
        pw = (w > 0).astype(float)
    else:
        pw = np.where(w > 0, w ** float(s), 0.0)
    return (v * pw) @ v.conj().T


def golden_min(fun, lo, hi, iters=60):
    """Golden-section search for the minimum of a unimodal fun on [lo, hi]:
    the cross-check for `kyfan.check_bj`'s refuting lambda (62 evaluations).
    Returns (x, fun(x))."""
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


def sampled_direction_gap(a, subspace, p, k, samples=20, seed=0):
    """min(0, min_j ||a + b_j|| - ||a||) over samples random directions b_j in
    the subspace, scaled to norms in [0.1, 2] max(||a||, 1): a sampled
    cross-check of the bound a verified `kyfan.verify_certificate` proves for
    every direction.  ||a|| is read where it reads it, off the descriptor's SVD."""
    from kyfan.norms import NormSpec, norm
    from kyfan.subdiff import descriptor

    spec = NormSpec.kyfan(p, k)
    na = descriptor(a, p, k).norm_value
    rng = np.random.default_rng(seed)
    gap = 0.0
    for _ in range(samples if subspace.dim else 0):
        if subspace.field == "real":
            coef = rng.standard_normal(subspace.dim)
        else:
            coef = rng.standard_normal(subspace.dim) + 1j * rng.standard_normal(subspace.dim)
        bdir = subspace.combine(coef)
        nrm_b = np.linalg.norm(bdir)
        if nrm_b > 0:
            bdir = bdir * (rng.uniform(0.1, 2.0) * max(na, 1.0) / nrm_b)
        gap = min(gap, norm(a + bdir, spec) - na)
    return gap


def zoom_extremes(rng_obj):
    """The lowest and highest support values of `kyfan.InnerRange` as a
    256-direction scan refined by four zooms of +-1 grid step (33 directions
    each, 1/16 the step each time): the cross-check for its secant search
    `extreme`.  Returns ((theta_min, h_min), (theta_max, h_max))."""
    grid = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    hv = rng_obj.support(grid)
    ends = grid[[np.argmin(hv), np.argmax(hv)]]
    step = grid[1]
    for _ in range(4):
        cand = ends[:, None] + step * np.linspace(-1.0, 1.0, 33)
        hv = rng_obj.support(cand)
        ends = np.array([cand[0, np.argmin(hv[0])], cand[1, np.argmax(hv[1])]])
        step /= 16.0
    return (float(ends[0]), float(np.min(hv[0]))), (float(ends[1]), float(np.max(hv[1])))


def loop_spectrum_blocks(sigma):
    """`kyfan.core.spectrum_blocks` as a loop, one np.mean per block: the
    reference for its vectorized form.  Returns (values, multiplicities)."""
    from kyfan.core import BLOCK_TOL

    thresh = BLOCK_TOL * sigma[0]
    values, mults, start = [], [], 0
    for i in range(1, sigma.size + 1):
        if i == sigma.size or sigma[i - 1] - sigma[i] > thresh:
            values.append(float(np.mean(sigma[start:i])))
            mults.append(i - start)
            start = i
    return np.array(values), np.array(mults)


def _inner(x, y, field):
    # <x, y> = tr(y* x), real part only for real-span subspaces
    v = np.vdot(y, x)  # vdot conjugates its first argument: sum(conj(y) * x) = tr(y* x)
    return v.real if field == "real" else v


def loop_subspace_maps(subspace, x, coeffs):
    """`kyfan.core.MatrixSubspace`'s maps, one inner product per basis element:
    the reference for its one-product forms.  Returns (coefficients of x,
    combine(coeffs), real coordinates of x) for one matrix x; the real
    coordinates are Re<x, E_j> and, for a complex field, Re<x, iE_j> after it."""
    dt = float if subspace.field == "real" else complex
    c = np.array([_inner(x, e, subspace.field) for e in subspace.onb], dtype=dt)
    y = np.zeros(subspace.shape, dtype=complex)
    for cj, e in zip(coeffs, subspace.onb):
        y = y + cj * e
    units = (1.0,) if subspace.field == "real" else (1.0, 1j)
    xr = np.array([_inner(x, u * e, "real") for e in subspace.onb for u in units])
    return c, y, xr


def project_subspace(x, subspace):
    """Split x into its component in `subspace` and the orthogonal remainder."""
    return subspace.project(x)


def variational_norm_check(a, p, k, trials=32, seed=0):
    """max over sampled isometries U of (Re tr(U* (A*A)^(p/2) U))^(1/p).

    The top-k right singular vectors are always included, so the returned
    value matches ||A||_(p,k) up to eigensolver accuracy; random U give
    strictly interior values.
    """
    a = as_matrix(a)
    n0 = min(a.shape)
    if not 1 <= k <= n0:
        raise InvalidInputError("k out of range")
    if not np.isfinite(p) or p < 1:
        raise InvalidInputError("p must be finite and >= 1")
    _, sigma, vh = np.linalg.svd(a, full_matrices=False)
    s1 = sigma[0]
    if s1 == 0:
        return 0.0
    ratios = (sigma / s1) ** p
    rng = np.random.default_rng(seed)
    n = a.shape[1]

    def value(u):
        # tr(U* (A*A)^{p/2} U) = s1^p * sum_ij ratios_i |(Z* U)_ij|^2;
        # null-space components of U contribute nothing
        zu = vh @ u
        t = float(np.sum(ratios[:, None] * np.abs(zu) ** 2))
        return s1 * max(t, 0.0) ** (1.0 / p)

    best = value(vh[:k].conj().T)
    for _ in range(trials):
        gmat = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        u, _ = np.linalg.qr(gmat)
        best = max(best, value(u))
    return best


def trace_power_gradient(a, v, p, tol=1e-8):
    """Gradient representer of X -> Re tr(V V* (X*X)^(p/2)) at X = a, for p > 2.

    Returns p * A V V* (A*A)^((p-2)/2).  Columns of v must be (near-)eigenvectors
    of A*A; the derivative formula is only valid on that set.
    """
    a = as_matrix(a)
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[1] == 0:
        raise InvalidInputError("V needs at least one column")
    if v.shape[0] != a.shape[1]:
        raise InvalidInputError("V rows must match the column count of a")
    if not np.isfinite(p) or p <= 2:
        raise InvalidInputError("trace_power_gradient needs p > 2")
    ata = a.conj().T @ a
    scale = max(float(np.linalg.norm(ata, 2)), 1e-300)
    for j in range(v.shape[1]):
        col = v[:, j]
        nc = np.linalg.norm(col)
        if nc < 1e-12:
            raise InvalidInputError("V has a zero column")
        col = col / nc
        lam = np.real(np.vdot(col, ata @ col))
        if np.linalg.norm(ata @ col - lam * col) > max(tol, 1e-8) * scale:
            raise InvalidInputError("V columns must be eigenvectors of A*A")
    # (A*A)^((p-2)/2) via singular vectors keeps the zero block exact
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    pw = np.where(s > 0, s ** (p - 2.0), 0.0)
    root = (vh.conj().T * pw) @ vh
    return p * (a @ (v @ v.conj().T) @ root)


def polyak_descent_one(fg, x0, iters=150):
    """One-start Polyak-step subgradient descent, the loop the lockstep
    `kyfan.solvers.polyak_descent` runs on every row of its stack.

    fg(x) returns (value, subgradient) at a single point.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx, g = fg(x)
    best_x, best_f = x.copy(), fx
    slack = 0.1 * (1.0 + abs(fx))
    for _ in range(iters):
        gn = float(np.dot(g, g))
        if gn < 1e-30:
            break
        step = (fx - best_f + slack) / gn
        x = x - step * g
        fx, g = fg(x)
        if fx < best_f:
            best_f, best_x = fx, x.copy()
        slack *= 0.93
    return best_x, best_f


def repetition_probe(a, x, p, k, trials=12, seed=0):
    """Uniqueness by repetition: the cross-check for `kyfan.unique_1d_probe`.

    Scattered starts over the complex plane descend in lockstep (Polyak
    steps), each is polished, and the spread of the polished points within
    1e-8 of the best value is returned with that value: (spread, best).  A
    plateau of minimizers shows as a large spread, but the starts need not
    reach its far ends, so the spread only bounds its diameter from below.
    """
    from kyfan.core import MatrixSubspace
    from kyfan.norms import NormSpec
    from kyfan.solvers import Objective, polish, polyak_descent

    a, x = as_matrix(a), as_matrix(x)
    sub = MatrixSubspace([x], field="complex")
    obj = Objective(a, sub, NormSpec.kyfan(p, k))
    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.abs(sub.coefficients(a)[0]))
    starts = [np.zeros(2), sub.real_coordinates(a)]
    while len(starts) < trials:
        starts.append(scale * rng.standard_normal(2))
    starts, _ = polyak_descent(obj.value_and_grad, np.array(starts), iters=120)
    ends = [polish(obj, x1)[:2] for x1 in starts]
    best = min(f for _, f in ends)
    keep = [sub.coefficients((xv @ sub.rows).reshape(a.shape))[0]
            for xv, f in ends if f <= best + 1e-8 * (1.0 + abs(best))]
    spread = max(abs(c1 - c2) for c1 in keep for c2 in keep)
    return float(spread), float(best)


def uniqueness_instances():
    """Acceptance criterion 6's instances in its order, as (full_rank, a, x, p, k, seed):
    30 with full-rank X (unique by the rank criterion), then 10 with rank-1 X
    whose minimizers fill the disk |s_1 - c| <= b."""
    rng = np.random.default_rng(606)

    def rand_complex(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    for i in range(30):
        n = 3 + i % 2
        a = rand_complex(n, n)
        yield True, a, rand_complex(n, n), [2.0, 3.0][i % 2], 1 + i % 2, i
    for i in range(10):
        n = 3 + i % 3
        s1, b = rng.uniform(1.5, 3.0), rng.uniform(0.5, 1.0)
        qu, _ = np.linalg.qr(rand_complex(n, n))
        qv, _ = np.linalg.qr(rand_complex(n, n))
        a = (qu * np.array([s1] + [b] * (n - 1))) @ qv.conj().T
        yield False, a, np.outer(qu[:, 0], qv[:, 0].conj()), 2.0, 1, 100 + i
