"""Subdifferential of the Ky Fan (p,k) norm, p >= 2.

For A != 0 the subdifferential is the convex hull of

    G = (1 / ||A||^(p-1)) * A (A*A)^((p-2)/2) * sum_{i<=k} v_i v_i*

over orthonormal v_1..v_k with A*A v_i = sigma_i(A)^2 v_i.  Eigenspaces fully
inside the top k contribute a fixed projector; only the block straddling
position k carries freedom (a rank-r projector inside a d-dimensional
eigenspace).  Every extreme point G has Schatten-q norm 1 (q = p/(p-1)) and
Re tr(G* A) = ||A||_(p,k).

At A = 0 the subdifferential is the whole dual unit ball; descriptors carry a
distinguished variant flag for that case.

Every point of the face is G_fixed + prefactor Z Q Z* (face_point): G_fixed =
prefactor V_f V_f* is the part all share (V_f the right singular vectors of the
full blocks), and Q lies in the fantope {0 <= Q <= I, tr Q = r} on the
boundary block Z, a rank-r projector at an extreme point.  Every question
asked of the face is a linear functional over it, paired with a matrix B
through pairing_range_parts: tr(G* B) = tr(G_fixed* B) + tr(Q Z* prefactor* B Z).
dir_derivative maximizes it, the BJ scalar set T is its range, and
face_min_norm asks whether the face holds a G with P_S G = 0 for a subspace S,
pairing G with S's realified rows, for BJ witnesses, subspace certificates and
best-approximation certificates alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpectrumBlocks, _clamp_small, as_matrix, matrix_pair, spectrum_blocks, tolerance
from .errors import InvalidInputError, UnsupportedError
from .norms import NormSpec, _sigma_norm, dual_norm, extreme_subgradient, norm


@dataclass
class BoundaryBlock:
    """The eigenspace straddling position k: choose any rank-r projector inside it."""

    block_index: int
    dim: int            # d = eigenspace dimension
    required: int       # r = k - (indices already covered), 0 < r < d
    basis: np.ndarray   # n x d orthonormal right-vector basis
    value: float        # shared singular value


@dataclass
class SubdiffDescriptor:
    p: float
    k: int
    norm_value: float
    sigma: np.ndarray                 # singular values, clamped (core.CLAMP_REL)
    prefactor: np.ndarray | None      # (1/||A||^(p-1)) A (A*A)^((p-2)/2); None at A = 0
    blocks: SpectrumBlocks | None
    boundary: BoundaryBlock | None
    g_fixed: np.ndarray | None        # prefactor V_f V_f*, shared by every extreme point
    v_full: np.ndarray | None         # V_f: right singular vectors of the blocks inside the top k
    singleton: bool
    rank_deficient: bool
    at_zero: bool = False
    shape: tuple | None = None


def subdiff_pk(spec, n0):
    """The (p, k) whose descriptor serves spec on matrices with n0 singular values.

    A norm that resolves to its spectral limit (the spectral norm, or p beyond
    norms.P_CAP) is sigma_1, the (2, 1) norm; p < 2 raises UnsupportedError.
    """
    p, k = spec.resolve(n0)
    if p is None:
        return 2.0, 1
    if p < 2:
        raise UnsupportedError("subdifferential operations need p >= 2 (or the spectral norm)")
    return p, k


def descriptor(a, p, k):
    """Structural description of the subdifferential of ||.||_(p,k) at a.

    p < 2 raises UnsupportedError (the extreme-point family below needs p >= 2).
    One SVD serves the norm value and the structure; singular values group
    into blocks at core.BLOCK_TOL.
    """
    a = as_matrix(a)
    if not np.isfinite(p) or p < 2:
        raise UnsupportedError("subdifferential descriptors need 2 <= p < inf, got %r" % (p,))
    n0 = min(a.shape)
    p_norm, k_norm = NormSpec.kyfan(p, k).resolve(n0)  # k out of range raises here

    u, s_raw, vh = np.linalg.svd(a, full_matrices=True)
    nrm = float(_sigma_norm(s_raw, p_norm, k_norm))
    if nrm == 0.0:
        return SubdiffDescriptor(
            p=p, k=k, norm_value=0.0, sigma=s_raw, prefactor=None, blocks=None,
            boundary=None, g_fixed=None, v_full=None, singleton=False,
            rank_deficient=True, at_zero=True, shape=a.shape)

    sigma = _clamp_small(s_raw, s_raw[0])
    right_full = vh.conj().T  # n x n, trailing columns span any extra null space
    blocks = spectrum_blocks(sigma)

    # prefactor = W diag((sigma_i/||A||)^(p-1)) Z*, the extreme subgradient at k = n0
    prefactor = extreme_subgradient(u, sigma, vh, nrm, p, n0)

    # the j blocks ending at or before k are full; a block straddling k is the boundary
    ends = blocks.boundaries
    j = int(np.searchsorted(ends, k, side="right"))
    lo = int(ends[j - 1]) if j else 0
    v_full = right_full[:, :lo]
    boundary = None
    if lo < k:
        # the zero block's eigenspace includes the null columns beyond n0
        basis = right_full[:, lo:] if blocks.values[j] == 0.0 else right_full[:, lo:ends[j]]
        boundary = BoundaryBlock(block_index=j, dim=basis.shape[1], required=k - lo,
                                 basis=basis, value=float(blocks.values[j]))
    return SubdiffDescriptor(
        p=p, k=k, norm_value=nrm, sigma=sigma, prefactor=prefactor, blocks=blocks,
        boundary=boundary, g_fixed=prefactor @ (v_full @ v_full.conj().T), v_full=v_full,
        singleton=boundary is None, rank_deficient=bool(sigma[k - 1] == 0.0),
        at_zero=False, shape=a.shape)


def face_point(desc, q):
    """G_fixed + prefactor Z Q Z*, the point of the face at the fantope element Q
    (d x d) on the boundary block Z; a singleton face is G_fixed alone, and
    takes Q = None."""
    if desc.boundary is None:
        return desc.g_fixed.copy()
    zb = desc.boundary.basis
    return desc.g_fixed + desc.prefactor @ zb @ q @ zb.conj().T


def sample_extreme(desc, seed=0, count=1):
    """Sample extreme points: face_point at Q = C C* for a random d x r isometry C.

    Deterministic per seed.  Returns a single matrix for count=1, else a list.
    """
    if desc.at_zero:
        raise InvalidInputError("extreme points are not enumerated for the zero matrix; "
                                "the subdifferential is the whole dual unit ball")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = None
        if desc.boundary is not None:
            d, r = desc.boundary.dim, desc.boundary.required
            c, _ = np.linalg.qr(rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r)))
            q = c @ c.conj().T
        out.append(face_point(desc, q))
    return out[0] if count == 1 else out


def canonical_extreme(desc):
    """The deterministic extreme point using the leading boundary eigenvectors."""
    if desc.at_zero:
        raise InvalidInputError("no canonical extreme point at A = 0")
    if desc.boundary is None:
        return face_point(desc, None)
    c = np.eye(desc.boundary.dim, desc.boundary.required)
    return face_point(desc, c @ c.T)


def membership(a, p, k, g, tol=1e-8):
    """Is g a subgradient of ||.||_(p,k) at a?

    Exact characterization: Re tr(g* a) >= ||a|| - tol and dual norm of g <= 1 + tol.
    """
    tol = tolerance(tol)
    a, g = matrix_pair(a, g)
    nrm = norm(a, NormSpec.kyfan(p, k))
    pairing = float(np.real(np.trace(g.conj().T @ a)))
    if pairing < nrm - tol * max(1.0, nrm):
        return False
    return dual_norm(g, NormSpec.kyfan(p, k)) <= 1.0 + tol


def pairing_range_parts(desc, b):
    """Split tr(G* B) over the face into a fixed scalar and a boundary compression.

    Returns (fixed, mb) with fixed = tr(G_fixed* B) and mb = Z* (prefactor* B) Z,
    or None when the descriptor is a singleton; tr(G* B) = fixed + tr(Q mb) at
    face_point(desc, Q), so the extreme points give {fixed + tr(C* mb C) : C
    isometry}.  B may be a stack of matrices; fixed and mb are stacked then.
    """
    b = np.asarray(b, dtype=complex)
    fixed = b.reshape(b.shape[:-2] + (desc.g_fixed.size,)) @ desc.g_fixed.conj().ravel()
    mb = None
    if desc.boundary is not None:
        zb = desc.boundary.basis
        mb = zb.conj().T @ (desc.prefactor.conj().T @ b) @ zb
    return fixed, mb


def top_eigsum(h, r):
    """Sum of the r largest eigenvalues of the Hermitian part of h; h may be a
    stack of matrices (one stacked eigvalsh), and the sums are stacked then."""
    w = np.linalg.eigvalsh((h + np.swapaxes(h, -1, -2).conj()) / 2.0)
    out = np.sum(w[..., w.shape[-1] - r:], axis=-1)
    return float(out) if out.ndim == 0 else out


def dir_derivative(a, x, p, k):
    """One-sided directional derivative of ||.||_(p,k) at a along x.

    Equals max over subgradient extreme points G of Re tr(x* G); at a = 0 this
    is ||x||_(p,k).
    """
    a, x = matrix_pair(a, x)
    desc = descriptor(a, p, k)
    if desc.at_zero:
        return norm(x, NormSpec.kyfan(p, k))
    fixed, mb = pairing_range_parts(desc, x)
    val = float(fixed.real)
    if mb is not None:
        # max Re tr(Q mb) over rank-r projectors Q = top-r eigensum of mb's Hermitian part
        val += top_eigsum(mb, desc.boundary.required)
    return val


@dataclass
class FaceMinimum:
    """The subgradient in the face nearest to the complement of a subspace S."""

    g: np.ndarray           # G = face_point(desc, q)
    q: np.ndarray           # boundary fantope element, d x d (0 x 0 on a singleton face)
    weights: np.ndarray     # convex weights of the active atoms
    atoms: list             # d x r isometries C_j with q = sum_j w_j C_j C_j*
    residual: float         # ||P_S G||_F
    lower: float            # conditional-gradient lower bound on min ||P_S G|| over the face
    iterations: int         # linear-oracle calls


def _corral_weights(v, w):
    """Wolfe's minor cycles: convex weights of the min-norm point of the corral.

    v holds the atoms as columns, w the current weights (the newest atom at 0).
    Moves towards the affine min-norm point of the active atoms and drops every
    atom whose weight reaches zero on the way, so the survivors stay affinely
    independent.
    """
    active = np.ones(w.size, dtype=bool)
    while True:
        va = v[:, active]
        # min ||va alpha|| subject to sum alpha = 1, as least squares in the
        # differences to the first atom (normal equations would lose half the digits)
        beta = np.linalg.lstsq(va[:, 1:] - va[:, :1], -va[:, 0], rcond=None)[0]
        alpha = np.concatenate([[1.0 - np.sum(beta)], beta])
        wa = w[active]
        if np.all(alpha > 0.0):
            w = np.zeros_like(w)
            w[active] = alpha
            return w
        # walk from wa towards alpha until the first weight hits zero
        out = np.flatnonzero(alpha <= 0.0)
        gap = wa[out] - alpha[out]
        ratio = np.where(gap > 0.0, wa[out] / np.where(gap > 0.0, gap, 1.0), 0.0)
        j = int(np.argmin(ratio))
        wa = np.clip(wa + ratio[j] * (alpha - wa), 0.0, None)
        wa[out[j]] = 0.0
        w[active] = wa
        active &= w > 0.0


def face_min_norm(desc, rows, tol=0.0, max_iter=1000):
    """Minimize ||P_S G||_F over the face {face_point(desc, Q) : Q in the fantope}.

    rows are the realified orthonormal rows of S (MatrixSubspace.rows), so P_S G
    has the real coordinates x_s = Re tr(row_s* G), which pairing_range_parts
    gives as Re(fixed_s + tr(Q mb_s)) for the whole stack of rows; the
    fantope is {0 <= Q <= I, tr Q = r} on the boundary block (Overton &
    Womersley 1992).  Fully corrective conditional gradient from the
    canonical extreme point: the linear oracle is the bottom-r eigenvectors of
    sum_s x_s mb_s, and each step moves to the exact min-norm point of the
    active atoms (Wolfe), of which at most dim_R(S) + 1 stay (Caratheodory).
    Stops once the residual is <= tol, once the lower bound exceeds tol (then
    no G in the face reaches it), once the two meet, or after max_iter oracle
    calls.
    """
    if desc.at_zero:
        raise InvalidInputError("the face is not enumerated at A = 0")
    fixed, mb = pairing_range_parts(desc, rows.reshape((-1,) + desc.shape))
    c0 = fixed.real
    if mb is None:
        res = float(np.linalg.norm(c0))
        return FaceMinimum(face_point(desc, None), np.zeros((0, 0)), np.ones(1),
                           [np.zeros((0, 0))], res, res, 0)

    r = desc.boundary.required

    def atom(c):
        return c0 + np.einsum("ia,sij,ja->s", c.conj(), mb, c).real

    def oracle(x):
        h = np.tensordot(x, mb, axes=1)
        return np.linalg.eigh((h + h.conj().T) / 2.0)[1][:, :r]

    atoms = [np.eye(desc.boundary.dim, r, dtype=complex)]
    v = atom(atoms[0])[:, None]
    w = np.ones(1)
    x = v[:, 0]
    # round-off floor of a coordinate Re tr(row_s* G): ||G||_F <= ||prefactor||_F
    floor = 1e-14 * np.linalg.norm(desc.prefactor)
    lower, it = 0.0, 0
    while it < max_iter:
        res = float(np.linalg.norm(x))
        if res <= tol:
            break
        it += 1
        c = oracle(x)
        s = atom(c)
        # every G in the face has <x, P_S G> >= <x, s>, hence ||P_S G|| >= <x, s>/||x||
        lower = max(lower, float(x @ s) / res)
        if lower > tol or res - lower <= floor:
            break
        v_new = np.concatenate([v, s[:, None]], axis=1)
        w_new = _corral_weights(v_new, np.append(w, 0.0))
        keep = np.flatnonzero(w_new > 0.0)
        x_new = v_new[:, keep] @ w_new[keep]
        # an affinely independent corral has at most dim_R + 1 atoms (Caratheodory);
        # more, or no descent, means round-off has taken over
        if keep.size > v.shape[0] + 1 or np.linalg.norm(x_new) >= res:
            break
        atoms = [(atoms + [c])[i] for i in keep]
        v, w, x = v_new[:, keep], w_new[keep], x_new
    q = sum(wi * (c @ c.conj().T) for wi, c in zip(w, atoms))
    return FaceMinimum(face_point(desc, q), q, w, atoms, float(np.linalg.norm(x)), lower, it)
