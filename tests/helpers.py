"""Test-only matrix helpers and cross-checks that the library itself does not use."""

import numpy as np

from kyfan.core import CLAMP_REL, _clamp_small, as_matrix, svd
from kyfan.errors import InvalidInputError


def reconstruct(f):
    """left @ diag(sigma) @ right* for an SvdFactors."""
    return (f.left * f.sigma) @ f.right.conj().T


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
    f = svd(a)
    s1 = f.sigma[0]
    if s1 == 0:
        return 0.0
    ratios = (f.sigma / s1) ** p
    rng = np.random.default_rng(seed)
    n = a.shape[1]

    def value(u):
        # tr(U* (A*A)^{p/2} U) = s1^p * sum_ij ratios_i |(Z* U)_ij|^2;
        # null-space components of U contribute nothing
        zu = f.right.conj().T @ u
        t = float(np.sum(ratios[:, None] * np.abs(zu) ** 2))
        return s1 * max(t, 0.0) ** (1.0 / p)

    best = value(f.right[:, :k])
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
