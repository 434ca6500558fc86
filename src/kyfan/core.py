"""Matrix primitives and conventions: clamping, spectrum grouping, subspaces.

The clamping and multiplicity conventions live here: CLAMP_REL and BLOCK_TOL.
Each caller takes one np.linalg.svd of its own (norms.norm, norms.dual_norm,
the solver objective, subdiff.descriptor), so that a single factorization
serves each point, and applies these constants to it.

Conventions:
  * complex128 matrices throughout; reals are accepted and widened
  * singular values are non-increasing (np.linalg.svd's order)
  * singular values below CLAMP_REL * sigma_1 are clamped to exactly 0 where
    zeros matter (subdiff.descriptor)
  * singular values within BLOCK_TOL * sigma_1 of their neighbour form one
    multiplicity block (spectrum_blocks); it is the only grouping
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# relative clamp threshold for tiny singular values / eigenvalues
CLAMP_REL = 1e-14

# relative tolerance for grouping near-equal singular values
BLOCK_TOL = 1e-8


def as_matrix(a):
    """Coerce to a 2-d complex128 ndarray."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise InvalidInputError("expected a 2-d matrix, got ndim=%d" % a.ndim)
    return a


def matrix_pair(a, b):
    """as_matrix of both; InvalidInputError unless they share one shape."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise InvalidInputError("shape mismatch")
    return a, b


def matrix_in(a, subspace):
    """as_matrix(a); InvalidInputError unless subspace is a MatrixSubspace of a's shape."""
    a = as_matrix(a)
    if not isinstance(subspace, MatrixSubspace):
        raise InvalidInputError("subspace must be a MatrixSubspace")
    if subspace.shape != a.shape:
        raise InvalidInputError("matrix shape %r does not match subspace shape %r"
                                % (a.shape, subspace.shape))
    return a


def tolerance(tol, name="tol"):
    """float(tol); InvalidInputError unless it is finite and >= 0."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise InvalidInputError("%s must be finite and >= 0, got %r" % (name, tol))
    return float(tol)


def negligible(r, a):
    """Is ||r||_F <= CLAMP_REL ||a||_F?  Both are divided by max |a_ij| first, so
    that neither norm under- or overflows; next to a = 0 only r = 0 is negligible."""
    s = np.max(np.abs(a), initial=0.0)
    if s == 0.0:
        return not np.any(r)
    return bool(np.linalg.norm(r / s) <= CLAMP_REL * np.linalg.norm(a / s))


def _clamp_small(vals, scale):
    vals = np.asarray(vals, dtype=float).copy()
    if scale > 0:
        vals[vals < CLAMP_REL * scale] = 0.0
    return vals


@dataclass
class SpectrumBlocks:
    """Grouping of a non-increasing value vector into near-equal blocks."""

    values: np.ndarray          # one representative (mean) per block, decreasing
    multiplicities: np.ndarray  # block sizes, sum == len(input)

    @property
    def boundaries(self):
        # cumulative end indices t_1 < t_2 < ... <= n0 (1-based counts)
        return np.cumsum(self.multiplicities)

    def block_of(self, i):
        """Index of the block containing 1-based position i."""
        return int(np.searchsorted(self.boundaries, i))


def spectrum_blocks(sigma):
    """Group a non-increasing vector into multiplicity blocks.

    Adjacent values closer than BLOCK_TOL * sigma_1 merge (transitively), so the
    grouping does not depend on the scale of the vector.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1:
        raise InvalidInputError("spectrum_blocks expects a vector")
    if sigma.size == 0:
        return SpectrumBlocks(values=np.zeros(0), multiplicities=np.zeros(0, dtype=int))
    step = np.diff(sigma)
    if np.any(step > 1e-12 * abs(sigma[0])):
        raise InvalidInputError("spectrum_blocks expects a non-increasing vector")
    ids = np.cumsum(np.concatenate(([False], step < -BLOCK_TOL * sigma[0])))  # block of each value
    mults = np.bincount(ids)
    return SpectrumBlocks(values=np.bincount(ids, weights=sigma) / mults, multiplicities=mults)


@dataclass
class MatrixSubspace:
    """A linear subspace of m x n matrices over a declared scalar field.

    The user basis is kept for reporting; computations use an orthonormalized
    basis (two Gram-Schmidt passes under the field's trace inner product),
    stacked as onb, and its realified rows: one flattened matrix per real
    coordinate, E_j and, for a complex field, iE_j after it.  The rows are
    orthonormal under Re tr(X* Y), so x -> sum_i x_i row_i maps real
    coordinates onto the subspace isometrically.  This is the one place that
    fixes that layout; the solvers, the face routine and the pin equations
    all read rows.
    """

    basis: list
    field: str = "complex"
    shape: tuple | None = None
    onb: np.ndarray = None   # dim x m x n, filled in __post_init__
    rows: np.ndarray = None  # real dim x (m n), filled in __post_init__

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
        self.shape = tuple(self.shape)
        flat = np.array(self.basis, dtype=complex).reshape(len(self.basis), math.prod(self.shape))
        # the tests run on the basis over the power of two below its largest entry
        # modulus: the Gram matrix neither under- nor overflows, and no bit changes
        s = float(np.abs(flat).max(initial=0.0))
        if 0.0 < s < math.inf:
            flat = flat / math.ldexp(1.0, math.frexp(s)[1] - 1)
        self._check_independent(flat)
        self._onb_flat = flat = self._orthonormalize(flat)
        self.onb = flat.reshape((len(flat),) + self.shape)
        if self.field == "complex":
            flat = np.stack([flat, 1j * flat], axis=1).reshape(2 * len(flat), flat.shape[1])
        self.rows = flat

    def _check_independent(self, b):
        if not len(b):
            return
        gram = b.conj() @ b.T  # gram[i, j] = tr(b_i* b_j)
        if self.field == "real":
            # real-span independence: Gram of Re-inner products on the realified space
            gram = gram.real
        w = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        scale = max(w[-1], 1e-300)
        if w[0] < 1e-12 * scale:
            raise InvalidInputError("basis is not linearly independent over the %s field" % self.field)

    def _orthonormalize(self, flat):
        onb = np.zeros((0, flat.shape[1]), dtype=complex)
        for b in flat:
            v = b
            for _ in range(2):  # two passes for orthogonality at machine precision
                c = onb.conj() @ v
                v = v - (c.real if self.field == "real" else c) @ onb
            nrm = float(np.linalg.norm(v))
            if nrm <= 1e-12 * np.linalg.norm(b):
                raise InvalidInputError("basis is numerically dependent")
            onb = np.concatenate([onb, v[None] / nrm])
        return onb

    @property
    def dim(self):
        return len(self.onb)

    def _vec(self, x):
        x = np.asarray(x, dtype=complex)
        return x.reshape(x.shape[:-2] + (self.rows.shape[1],))

    def coefficients(self, x):
        """Coordinates of the projection of x in the orthonormal basis; x may be
        a stack of matrices."""
        c = self._vec(x) @ self._onb_flat.conj().T
        return c.real if self.field == "real" else c

    def combine(self, coeffs):
        """Linear combination of the orthonormal basis; coeffs may be a stack."""
        c = np.asarray(coeffs)
        return (c @ self._onb_flat).reshape(c.shape[:-1] + self.shape)

    def real_coordinates(self, x):
        """Real coordinates Re tr(row_i* x) of the projection of x onto the
        subspace, in the layout of rows; x may be a stack of matrices."""
        return (self._vec(x) @ self.rows.conj().T).real

    def project(self, x):
        """Return (onto, perp) with x = onto + perp, onto in the subspace; x may
        be a stack of matrices."""
        onto = self.combine(self.coefficients(x))
        return onto, np.asarray(x, dtype=complex) - onto
