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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BLOCK_TOL, SpectrumBlocks, as_matrix, spectrum_blocks
from .errors import InvalidInputError, UnsupportedError
from .norms import NormSpec, dual_norm, norm


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
    prefactor: np.ndarray | None      # (1/||A||^(p-1)) A (A*A)^((p-2)/2); None at A = 0
    blocks: SpectrumBlocks | None
    full_blocks: list                 # block indices fully inside the top k
    boundary: BoundaryBlock | None
    fixed_projector: np.ndarray | None  # sum of full-block right projectors
    singleton: bool
    rank_deficient: bool
    at_zero: bool = False
    shape: tuple | None = None
    eig_bases: list = field(default_factory=list, repr=False)  # per-block right bases


def eigenspace_bases(sigma_blocks, right_full, n0):
    """Right-singular-vector basis per block; the zero block gets the full null space."""
    bases = []
    for j in range(len(sigma_blocks.values)):
        lo, hi = sigma_blocks.block_range(j)
        cols = right_full[:, lo:hi]
        if sigma_blocks.values[j] == 0.0:
            cols = np.concatenate([cols, right_full[:, n0:]], axis=1)
        bases.append(cols)
    return bases


def descriptor(a, p, k, tol=BLOCK_TOL):
    """Structural description of the subdifferential of ||.||_(p,k) at a.

    p < 2 raises UnsupportedError (the extreme-point family below needs p >= 2).
    """
    a = as_matrix(a)
    if not np.isfinite(p) or p < 2:
        raise UnsupportedError("subdifferential descriptors need 2 <= p < inf, got %r" % (p,))
    n0 = min(a.shape)
    if not 1 <= k <= n0:
        raise InvalidInputError("k must lie in [1, %d]" % n0)

    nrm = norm(a, NormSpec.kyfan(p, k))
    if nrm == 0.0:
        return SubdiffDescriptor(
            p=p, k=k, norm_value=0.0, prefactor=None, blocks=None, full_blocks=[],
            boundary=None, fixed_projector=None, singleton=False,
            rank_deficient=True, at_zero=True, shape=a.shape)

    u, s_raw, vh = np.linalg.svd(a, full_matrices=True)
    sigma = s_raw.copy()
    sigma[sigma < 1e-14 * (sigma[0] if sigma.size else 0.0)] = 0.0
    right_full = vh.conj().T  # n x n, trailing columns span any extra null space
    blocks = spectrum_blocks(sigma, tol)

    # prefactor = W diag((sigma_i/||A||)^(p-1)) Z*; ratios <= 1 so large p is safe
    ratios = (sigma / nrm) ** (p - 1.0)
    prefactor = (u[:, :n0] * ratios) @ vh[:n0, :]

    bases = eigenspace_bases(blocks, right_full, n0)
    full_blocks, boundary = [], None
    fixed = np.zeros((a.shape[1], a.shape[1]), dtype=complex)
    for j in range(len(blocks.values)):
        lo, hi = blocks.block_range(j)
        if hi <= k:
            full_blocks.append(j)
            zb = right_full[:, lo:hi]  # the projector never needs extra null columns
            fixed += zb @ zb.conj().T
        elif lo < k:
            boundary = BoundaryBlock(
                block_index=j, dim=bases[j].shape[1], required=k - lo,
                basis=bases[j], value=float(blocks.values[j]))
            break
        else:
            break

    rank_def = bool(sigma[k - 1] == 0.0)
    singleton = boundary is None
    return SubdiffDescriptor(
        p=p, k=k, norm_value=nrm, prefactor=prefactor, blocks=blocks,
        full_blocks=full_blocks, boundary=boundary, fixed_projector=fixed,
        singleton=singleton, rank_deficient=rank_def, at_zero=False,
        shape=a.shape, eig_bases=bases)


def sample_extreme(desc, seed=0, count=1):
    """Sample extreme points: prefactor @ (fixed projector + random rank-r boundary projector).

    Deterministic per seed.  Returns a single matrix for count=1, else a list.
    """
    if desc.at_zero:
        raise InvalidInputError("extreme points are not enumerated for the zero matrix; "
                                "the subdifferential is the whole dual unit ball")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        proj = desc.fixed_projector.copy()
        if desc.boundary is not None:
            d, r = desc.boundary.dim, desc.boundary.required
            g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            q, _ = np.linalg.qr(g)
            y = desc.boundary.basis @ q
            proj = proj + y @ y.conj().T
        out.append(desc.prefactor @ proj)
    return out[0] if count == 1 else out


def canonical_extreme(desc):
    """The deterministic extreme point using the leading boundary eigenvectors."""
    if desc.at_zero:
        raise InvalidInputError("no canonical extreme point at A = 0")
    proj = desc.fixed_projector.copy()
    if desc.boundary is not None:
        y = desc.boundary.basis[:, : desc.boundary.required]
        proj = proj + y @ y.conj().T
    return desc.prefactor @ proj


def membership(a, p, k, g, tol=1e-8):
    """Is g a subgradient of ||.||_(p,k) at a?

    Exact characterization: Re tr(g* a) >= ||a|| - tol and dual norm of g <= 1 + tol.
    """
    a = as_matrix(a)
    g = as_matrix(g)
    if a.shape != g.shape:
        raise InvalidInputError("shape mismatch")
    nrm = norm(a, NormSpec.kyfan(p, k))
    pairing = float(np.real(np.trace(g.conj().T @ a)))
    if pairing < nrm - tol * max(1.0, nrm):
        return False
    return dual_norm(g, NormSpec.kyfan(p, k)) <= 1.0 + tol


def pairing_range_parts(desc, b):
    """Split tr(G* B) over the extreme points into fixed scalar + boundary compression.

    Returns (fixed, mb) with mb = Z_b* (prefactor* B) Z_b or None when the
    descriptor is a singleton; the value set is {fixed + tr(C* mb C) : C isometry}.
    """
    b = as_matrix(b)
    fixed_g = desc.prefactor @ desc.fixed_projector
    fixed = complex(np.trace(fixed_g.conj().T @ b))
    mb = None
    if desc.boundary is not None:
        m = desc.prefactor.conj().T @ b
        zb = desc.boundary.basis
        mb = zb.conj().T @ m @ zb
    return fixed, mb


def top_eigsum(h, r):
    """Sum of the r largest eigenvalues of a Hermitian matrix."""
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    return float(np.sum(w[::-1][:r]))


def dir_derivative(a, x, p, k, tol=BLOCK_TOL):
    """One-sided directional derivative of ||.||_(p,k) at a along x.

    Equals max over subgradient extreme points G of Re tr(x* G); at a = 0 this
    is ||x||_(p,k).
    """
    a = as_matrix(a)
    x = as_matrix(x)
    if a.shape != x.shape:
        raise InvalidInputError("shape mismatch")
    desc = descriptor(a, p, k, tol=tol)
    if desc.at_zero:
        return norm(x, NormSpec.kyfan(p, k))
    val = float(np.real(np.trace((desc.prefactor @ desc.fixed_projector).conj().T @ x)))
    if desc.boundary is not None:
        # max tr(H Q) over rank-r projectors Q in the block = top-r eigensum of
        # the compression of H = (prefactor* x + x* prefactor)/2
        h = (desc.prefactor.conj().T @ x + x.conj().T @ desc.prefactor) / 2.0
        zb = desc.boundary.basis
        val += top_eigsum(zb.conj().T @ h @ zb, desc.boundary.required)
    return val
