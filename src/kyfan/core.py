"""Matrix primitives: the SVD wrapper, spectrum grouping, subspaces.

Everything downstream (norms, subdifferentials, approximation) goes through
these helpers so that clamping and multiplicity conventions live in one place.

Conventions:
  * complex128 matrices throughout; reals are accepted and widened
  * singular values are returned non-increasing
  * singular values below 1e-14 * sigma_1 are clamped to exactly 0
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# relative clamp threshold for tiny singular values / eigenvalues
CLAMP_REL = 1e-14

# default relative tolerance for grouping near-equal singular values
BLOCK_TOL = 1e-8


def as_matrix(a):
    """Coerce to a 2-d complex128 ndarray."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise InvalidInputError("expected a 2-d matrix, got ndim=%d" % a.ndim)
    return a


def _clamp_small(vals, scale):
    vals = np.asarray(vals, dtype=float).copy()
    if scale > 0:
        vals[vals < CLAMP_REL * scale] = 0.0
    return vals


def _fix_phases(u, vh):
    # rotate each singular pair so the largest-magnitude entry of u is real >= 0;
    # removes the per-column phase ambiguity (block ambiguity remains)
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        z = u[i, j]
        if abs(z) > 0:
            ph = z / abs(z)
            u[:, j] = u[:, j] / ph
            vh[j, :] = vh[j, :] * ph
    return u, vh


@dataclass
class SvdFactors:
    """Reduced SVD A = left @ diag(sigma) @ right.conj().T with sigma non-increasing."""

    left: np.ndarray    # m x n0
    sigma: np.ndarray   # n0, clamped
    right: np.ndarray   # n x n0


def svd(a):
    """Reduced SVD with non-increasing, clamped singular values.

    Deterministic for identical input bits; per-pair phases are fixed so
    repeated calls agree exactly (degenerate blocks keep their unitary freedom).
    """
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    s = _clamp_small(s, s[0] if s.size else 0.0)
    u, vh = _fix_phases(u, vh)
    return SvdFactors(left=u, sigma=s, right=vh.conj().T)


@dataclass
class SpectrumBlocks:
    """Grouping of a non-increasing value vector into near-equal blocks."""

    values: np.ndarray          # one representative (mean) per block, decreasing
    multiplicities: np.ndarray  # block sizes, sum == len(input)
    tol: float

    @property
    def boundaries(self):
        # cumulative end indices t_1 < t_2 < ... <= n0 (1-based counts)
        return np.cumsum(self.multiplicities)

    def block_of(self, i):
        """Index of the block containing 1-based position i."""
        return int(np.searchsorted(self.boundaries, i))

    def block_range(self, j):
        """Half-open 0-based index range covered by block j."""
        ends = self.boundaries
        lo = 0 if j == 0 else int(ends[j - 1])
        return lo, int(ends[j])


def spectrum_blocks(sigma, tol=BLOCK_TOL):
    """Group a non-increasing vector into multiplicity blocks.

    Adjacent values closer than tol * max(sigma_1, 1) merge (transitively).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1:
        raise InvalidInputError("spectrum_blocks expects a vector")
    if sigma.size == 0:
        return SpectrumBlocks(values=np.zeros(0), multiplicities=np.zeros(0, dtype=int), tol=tol)
    if np.any(np.diff(sigma) > 1e-12 * max(abs(sigma[0]), 1.0)):
        raise InvalidInputError("spectrum_blocks expects a non-increasing vector")
    thresh = tol * max(sigma[0], 1.0)
    values, mults = [], []
    start = 0
    for i in range(1, sigma.size + 1):
        if i == sigma.size or sigma[i - 1] - sigma[i] > thresh:
            values.append(float(np.mean(sigma[start:i])))
            mults.append(i - start)
            start = i
    return SpectrumBlocks(values=np.array(values), multiplicities=np.array(mults, dtype=int), tol=tol)


def _inner(x, y, field):
    # <x, y> = tr(y* x), real part only for real-span subspaces
    v = np.vdot(y, x)  # vdot conjugates its first argument: sum(conj(y) * x) = tr(y* x)
    return v.real if field == "real" else v


@dataclass
class MatrixSubspace:
    """A linear subspace of m x n matrices over a declared scalar field.

    The user basis is kept for reporting; computations use an orthonormalized
    basis (modified Gram-Schmidt under the field's trace inner product).
    """

    basis: list
    field: str = "complex"
    shape: tuple | None = None
    onb: list = None  # filled in __post_init__

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise InvalidInputError("field must be 'real' or 'complex'")
        self.basis = [as_matrix(b) for b in self.basis]
        if self.basis:
            shp = self.basis[0].shape
            if any(b.shape != shp for b in self.basis):
                raise InvalidInputError("basis matrices must share one shape")
            if self.shape is None:
                self.shape = shp
            elif tuple(self.shape) != shp:
                raise InvalidInputError("declared shape disagrees with basis")
        elif self.shape is None:
            raise InvalidInputError("empty basis needs an explicit shape")
        self._check_independent()
        self.onb = self._orthonormalize()

    def _check_independent(self):
        d = len(self.basis)
        if d == 0:
            return
        gram = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                gram[i, j] = _inner(self.basis[i], self.basis[j], "complex")
        if self.field == "real":
            # real-span independence: Gram of Re-inner products on the realified space
            gram = gram.real
        w = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        scale = max(w[-1], 1e-300)
        if w[0] < 1e-12 * scale:
            raise InvalidInputError("basis is not linearly independent over the %s field" % self.field)

    def _orthonormalize(self):
        onb = []
        for b in self.basis:
            v = b.copy()
            for _ in range(2):  # two MGS passes for orthogonality at machine precision
                for e in onb:
                    v = v - _inner(v, e, self.field) * e
            nrm = float(np.linalg.norm(v))
            if nrm < 1e-12:
                raise InvalidInputError("basis is numerically dependent")
            onb.append(v / nrm)
        return onb

    @property
    def dim(self):
        return len(self.onb)

    def coefficients(self, x):
        """Coordinates of the projection of x in the orthonormal basis."""
        x = as_matrix(x)
        dt = float if self.field == "real" else complex
        return np.array([_inner(x, e, self.field) for e in self.onb], dtype=dt)

    def combine(self, coeffs):
        """Linear combination of the orthonormal basis."""
        y = np.zeros(self.shape, dtype=complex)
        for c, e in zip(coeffs, self.onb):
            y = y + c * e
        return y

    def project(self, x):
        """Return (onto, perp) with x = onto + perp, onto in the subspace."""
        onto = self.combine(self.coefficients(x))
        return onto, as_matrix(x) - onto
