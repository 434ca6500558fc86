import numpy as np
import pytest

from kyfan.errors import InvalidInputError, UnsupportedError
from kyfan.norms import NormSpec, dual_norm, norm
from kyfan.subdiff import (
    canonical_extreme,
    descriptor,
    dir_derivative,
    membership,
    pairing_range_parts,
    sample_extreme,
    top_eigsum,
)

from conftest import fd_derivative, rand_complex, rand_with_sigma
from helpers import trace_power_gradient


def test_descriptor_simple_singleton():
    d = descriptor(np.diag([2.0, 1.0]), p=2, k=1)
    assert d.singleton and not d.rank_deficient
    g = canonical_extreme(d)
    assert np.allclose(g, np.diag([1.0, 0.0]), atol=1e-12)


def test_descriptor_p3_k2_formula():
    # G = diag(4,1)/9^(2/3); its Schatten-3/2 norm is exactly 1
    d = descriptor(np.diag([2.0, 1.0]), p=3, k=2)
    assert d.singleton
    g = canonical_extreme(d)
    assert np.allclose(g, np.diag([4.0, 1.0]) / 9.0 ** (2.0 / 3.0), atol=1e-12)
    assert abs(dual_norm(g, NormSpec.kyfan(3, 2)) - 1.0) <= 1e-10


def test_descriptor_degenerate_boundary():
    d = descriptor(np.eye(2), p=2, k=1)
    assert not d.singleton
    assert d.boundary is not None
    assert d.boundary.dim == 2 and d.boundary.required == 1


def test_descriptor_full_block_no_boundary():
    d = descriptor(np.diag([1.0, 1.0, 0.0]), p=2, k=2)
    assert d.singleton and d.boundary is None
    g = sample_extreme(d, seed=5)
    want = np.zeros((3, 3))
    want[0, 0] = want[1, 1] = 1.0 / np.sqrt(2.0)
    assert np.allclose(g, want, atol=1e-12)


def test_descriptor_at_zero():
    d = descriptor(np.zeros((2, 3)), p=2, k=1)
    assert d.at_zero and d.rank_deficient
    with pytest.raises(InvalidInputError):
        canonical_extreme(d)
    with pytest.raises(InvalidInputError):
        sample_extreme(d)


def test_descriptor_rejects_small_p():
    with pytest.raises(UnsupportedError):
        descriptor(np.eye(2), p=1.5, k=1)
    with pytest.raises(InvalidInputError):
        descriptor(np.eye(2), p=2, k=3)


def test_sampled_extremes_unit_dual_norm_identity():
    d = descriptor(np.eye(2), p=2, k=1)
    for seed in (0, 1):
        g = sample_extreme(d, seed=seed)
        assert np.linalg.matrix_rank(g) == 1
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-9
        assert abs(np.real(np.trace(g.conj().T @ np.eye(2))) - 1.0) <= 1e-9


def test_extreme_point_invariants(rng):
    # dual-norm one and pairing equality across p, k, shapes, degeneracy
    for t in range(60):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        if t % 4 == 0:
            n0 = min(m, n)
            s = np.sort(rng.uniform(0.2, 2.0, n0))[::-1]
            j = int(rng.integers(0, n0 - 1))
            s[j + 1] = s[j]  # forced multiplicity
            a = rand_with_sigma(rng, s, m, n)
        else:
            a = rand_complex(rng, m, n)
        p = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        k = int(rng.integers(1, min(m, n) + 1))
        desc = descriptor(a, p, k)
        nrm = norm(a, NormSpec.kyfan(p, k))
        q = p / (p - 1.0)
        for g in sample_extreme(desc, seed=t, count=3):
            sg = np.linalg.svd(g, compute_uv=False)
            schq = float(np.sum(sg ** q) ** (1.0 / q))
            assert abs(schq - 1.0) <= 1e-9, (t, p, k)
            pairing = float(np.real(np.trace(g.conj().T @ a)))
            assert abs(pairing - nrm) <= 1e-9 * nrm, (t, p, k)


def test_subgradient_inequality(rng):
    for t in range(25):
        a = rand_complex(rng, 4, 4)
        p = float(rng.choice([2.0, 3.0, 4.0]))
        k = int(rng.integers(1, 5))
        spec = NormSpec.kyfan(p, k)
        na = norm(a, spec)
        g = sample_extreme(descriptor(a, p, k), seed=t)
        for _ in range(20):
            x = rand_complex(rng, 4, 4)
            gap = norm(x, spec) - na - np.real(np.trace(g.conj().T @ (x - a)))
            assert gap >= -1e-8 * (1 + na), (t, p, k)


def test_membership_basic():
    a = np.diag([2.0, 1.0])
    g = canonical_extreme(descriptor(a, p=2, k=1))
    assert membership(a, 2, 1, g)
    assert not membership(a, 2, 1, np.zeros((2, 2)))


def test_membership_convex_combination(rng):
    a = np.eye(2)
    d = descriptor(a, p=2, k=1)
    for t in range(10):
        g1 = sample_extreme(d, seed=2 * t)
        g2 = sample_extreme(d, seed=2 * t + 1)
        lam = rng.uniform(0.0, 1.0)
        assert membership(a, 2, 1, lam * g1 + (1 - lam) * g2)


def test_membership_rejects_scaled(rng):
    a = rand_complex(rng, 3, 3)
    g = canonical_extreme(descriptor(a, 3, 2))
    assert not membership(a, 3, 2, 1.5 * g)
    assert not membership(a, 3, 2, 0.5 * g)


def test_frobenius_reduction(rng):
    # p = 2, k = n0 gives the singleton A / ||A||_F
    a = rand_complex(rng, 3, 4)
    d = descriptor(a, p=2, k=3)
    assert d.singleton
    g = canonical_extreme(d)
    assert np.max(np.abs(g - a / np.linalg.norm(a))) <= 1e-12


def test_pairing_range_parts_consistency(rng):
    a = rand_with_sigma(rng, [2.0, 1.0, 1.0], 3, 3)
    b = rand_complex(rng, 3, 3)
    desc = descriptor(a, p=2, k=2)
    fixed, mb = pairing_range_parts(desc, b)
    assert mb is not None
    for seed in range(5):
        g = sample_extreme(desc, seed=seed)
        t = complex(np.trace(g.conj().T @ b))
        # reconstruct the same scalar through the compression
        zb = desc.boundary.basis
        # recover the isometry sample_extreme used is awkward; instead check the
        # sampled scalar lies inside the compression's numerical range bounds
        w = np.linalg.eigvalsh((mb + mb.conj().T) / 2.0)
        r = desc.boundary.required
        lo = float(np.sum(w[:r]))
        hi = float(np.sum(w[::-1][:r]))
        assert lo - 1e-9 <= (t - fixed).real <= hi + 1e-9


def test_top_eigsum():
    h = np.diag([3.0, 1.0, -2.0])
    assert top_eigsum(h, 1) == 3.0
    assert top_eigsum(h, 2) == 4.0
    assert abs(top_eigsum(h, 3) - 2.0) <= 1e-12


def test_dir_derivative_knowns():
    a = np.diag([2.0, 1.0])
    assert abs(dir_derivative(a, np.eye(2), 2, 1) - 1.0) <= 1e-12
    assert abs(dir_derivative(a, np.diag([0.0, 1.0]), 2, 1)) <= 1e-12
    assert abs(dir_derivative(np.eye(2), np.diag([1.0, -1.0]), 2, 1) - 1.0) <= 1e-12


def test_dir_derivative_at_zero(rng):
    x = rand_complex(rng, 3, 3)
    got = dir_derivative(np.zeros((3, 3)), x, 2.5, 2)
    assert abs(got - norm(x, NormSpec.kyfan(2.5, 2))) <= 1e-12


def test_dir_derivative_finite_difference(rng):
    for t in range(120):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        n0 = min(m, n)
        if t % 5 == 0:
            # constructed degeneracy at the k boundary
            s = np.sort(rng.uniform(0.3, 2.0, n0))[::-1]
            k = int(rng.integers(1, n0))
            s[k] = s[k - 1]
            a = rand_with_sigma(rng, s, m, n)
        else:
            a = rand_complex(rng, m, n)
            k = int(rng.integers(1, n0 + 1))
        x = rand_complex(rng, m, n)
        p = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        got = dir_derivative(a, x, p, k)
        fd = fd_derivative(a, x, NormSpec.kyfan(p, k), t=1e-6)
        assert abs(got - fd) <= 1e-4 * (1 + np.linalg.norm(x)), (t, p, k)


def test_dir_derivative_shape_mismatch():
    with pytest.raises(InvalidInputError):
        dir_derivative(np.eye(2), np.eye(3), 2, 1)


def test_trace_power_gradient_diagonal():
    a = np.diag([2.0, 1.0])
    g1 = trace_power_gradient(a, np.array([1.0, 0.0]), p=4)
    assert np.allclose(g1, np.diag([32.0, 0.0]), atol=1e-12)
    g2 = trace_power_gradient(a, np.array([0.0, 1.0]), p=4)
    assert np.allclose(g2, np.diag([0.0, 4.0]), atol=1e-12)


def test_trace_power_gradient_finite_difference(rng):
    # d/dt tr(VV* ((A+tX)*(A+tX))^(p/2)) at t=0 equals Re tr(G* X)
    for t in range(15):
        a = rand_complex(rng, 3, 3)
        x = rand_complex(rng, 3, 3)
        p = float(rng.choice([3.0, 4.0, 2.5]))
        _, vecs = np.linalg.eigh(a.conj().T @ a)
        v = vecs[:, -1:]

        # direct scalar: tr(V V* (M*M)^(p/2))
        def fval(mat):
            w, q = np.linalg.eigh(mat.conj().T @ mat)
            w = np.clip(w, 0.0, None)
            pw = (q * w ** (p / 2.0)) @ q.conj().T
            return float(np.real(np.trace(v.conj().T @ pw @ v)))

        g = trace_power_gradient(a, v, p)
        h = 1e-6
        fd = (fval(a + h * x) - fval(a - h * x)) / (2 * h)
        got = float(np.real(np.trace(g.conj().T @ x)))
        assert abs(got - fd) <= 1e-4 * (1 + abs(fd)), t


def test_trace_power_gradient_null_vector():
    a = np.diag([2.0, 0.0])
    g = trace_power_gradient(a, np.array([0.0, 1.0]), p=3)
    assert np.max(np.abs(g)) <= 1e-12


def test_trace_power_gradient_validation():
    a = np.diag([2.0, 1.0])
    with pytest.raises(InvalidInputError):
        trace_power_gradient(a, np.zeros((2, 0)), p=3)
    with pytest.raises(InvalidInputError):
        trace_power_gradient(a, np.ones(2) / np.sqrt(2), p=3)  # not an eigenvector
    with pytest.raises(InvalidInputError):
        trace_power_gradient(a, np.array([1.0, 0.0]), p=2)
