import numpy as np
import pytest

from kyfan.core import MatrixSubspace, _clamp_small

from kyfan.errors import InvalidInputError, UnsupportedError
from kyfan.norms import NormSpec, dual_norm, extreme_subgradient, norm, norm_of_sigma
from kyfan.ortho import inner_range
from kyfan.subdiff import (
    canonical_extreme,
    descriptor,
    dir_derivative,
    face_min_norm,
    membership,
    pairing_range_parts,
    sample_extreme,
    top_eigsum,
)

from conftest import fd_derivative, orthogonal_to, rand_complex, rand_with_sigma, tied_probe
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


def test_one_svd_per_descriptor(rng, monkeypatch):
    a = rand_complex(rng, 3, 4)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    descriptor(a, 3, 2)
    assert len(calls) == 1


def test_descriptor_norm_value_matches_norm(rng):
    # p = 1e7 lies beyond norms.P_CAP: both take the spectral limit sigma_1
    for p, k in [(2, 1), (2, 3), (3, 2), (16, 2), (1e7, 2)]:
        a = rand_complex(rng, 3, 4)
        want = norm(a, NormSpec.kyfan(p, k))
        assert abs(descriptor(a, p, k).norm_value - want) <= 1e-15 * want, (p, k)


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


def test_top_eigsum_on_a_stack_matches_each_matrix(rng):
    # InnerRange.support hands it a stack of rotations e^{-i theta} Mb
    for d, r in ((1, 1), (3, 1), (4, 2), (5, 5)):
        hs = np.array([rand_complex(rng, d, d) for _ in range(7)])
        got = top_eigsum(hs, r)
        assert got.shape == (7,)
        assert np.array_equal(got, [top_eigsum(h, r) for h in hs]), (d, r)


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


def test_face_min_norm_bounds_and_atom_cap(rng):
    # S real- or complex-orthogonal to a sampled extreme point, or random: the
    # point found is a subgradient, its residual is ||P_S G||, the lower bound
    # never passes it, and at most dim_R(S) + 1 atoms stay active
    found = 0
    for t, (a, p, g0) in enumerate(tied_probe(rng, 24)):
        dim, field = 1 + t % 3, ("complex", "real")[t % 2]
        basis = []
        for _ in range(dim):
            c = rand_complex(rng, *a.shape)
            if t % 4 < 3:
                ip = np.vdot(g0, c)
                c = c - ((ip.real if field == "real" else ip) / np.vdot(g0, g0).real) * g0
            basis.append(c)
        sub = MatrixSubspace(basis, field=field)
        face = face_min_norm(descriptor(a, p, 2), sub.rows, tol=1e-9, max_iter=1000)
        assert membership(a, p, 2, face.g), t
        assert abs(face.residual - np.linalg.norm(sub.project(face.g)[0])) <= 1e-12, t
        assert 0.0 <= face.lower <= face.residual + 1e-12, t
        assert len(face.atoms) <= (1 if field == "real" else 2) * dim + 1, t
        assert np.all(face.weights > 0) and abs(np.sum(face.weights) - 1.0) <= 1e-12
        q = sum(w * (c @ c.conj().T) for w, c in zip(face.weights, face.atoms))
        assert np.allclose(q, face.q, atol=1e-12)
        if t % 4 < 3:
            found += face.residual <= 1e-9
        else:
            assert face.lower > 1e-9, t  # a random subspace: proved infeasible
    assert found == 18


def test_dir_derivative_is_the_support_at_zero(rng):
    # both pair the face with x through pairing_range_parts and sum the same
    # eigenvalues in the same order: equal to the last bit
    # (sigma, k): generic, then boundary blocks needing r = 1 and r = 3 of them,
    # tied and rank-deficient
    cases = [(None, 2), (None, 4), ([3.0, 2.0, 2.0, 0.5, 0.2], 2), ([3.0, 1, 1, 1, 1], 4),
             ([2.0, 1.0, 0.0, 0.0, 0.0], 3), ([2.0, 0, 0, 0, 0], 4)]
    for p in (2.0, 3.0, 16.0):
        for sigma, k in cases:
            for t in range(6):
                shape = [(5, 5), (5, 6), (6, 5)][t % 3]
                a = rand_complex(rng, *shape) if sigma is None else rand_with_sigma(rng, sigma,
                                                                                    *shape)
                x = rand_complex(rng, *shape)
                want = inner_range(a, x, p, k).support(0.0)
                assert dir_derivative(a, x, p, k) == want, (p, sigma, t)


def test_face_min_norm_reads_a_complex_span_as_its_real_span(rng):
    # span_C{B_j} and span_R{B_j, iB_j} are one real space in two row layouts:
    # the residual, the lower bound and the verdict must not depend on the layout
    for t, (a, p, g0) in enumerate(tied_probe(rng, 40)):
        basis = [orthogonal_to(rng, g0) if t % 4 < 3 else rand_complex(rng, *a.shape)
                 for _ in range(1 + t % 2)]
        desc = descriptor(a, p, 2)
        cx = face_min_norm(desc, MatrixSubspace(basis, "complex").rows, tol=1e-9)
        re = face_min_norm(desc, MatrixSubspace(basis + [1j * b for b in basis], "real").rows,
                           tol=1e-9)
        assert abs(cx.residual - re.residual) <= 1e-12, t
        assert abs(cx.lower - re.lower) <= 1e-12, t
        assert (cx.residual <= 1e-9) == (re.residual <= 1e-9), t


def test_extreme_subgradient_kernel(rng):
    # the closed form shared by the solver objective, descriptor's prefactor and
    # the BJ refutation: pairing ||A||, dual norm 1, and the prefactor at k = n0
    spectra = {"generic": np.sort(rng.uniform(0.3, 3.0, 4))[::-1],
               "tied": np.array([3.0, 2.0, 2.0, 0.5]),
               "rankdef": np.array([3.0, 1.0, 0.0, 0.0])}
    # (spec, p, k) with the spectral limit on the (2, 1) subgradient
    norms = [(NormSpec.kyfan(2, 2), 2.0, 2), (NormSpec.kyfan(3, 2), 3.0, 2),
             (NormSpec.kyfan(16, 3), 16.0, 3), (NormSpec.spectral(), 2.0, 1)]
    for kind, sigma in spectra.items():
        a = rand_with_sigma(rng, sigma)
        u, s, vh = np.linalg.svd(a, full_matrices=True)
        for spec, p, k in norms:
            f = norm_of_sigma(s, spec)
            g = extreme_subgradient(u, s, vh, f, p, k)
            assert abs(np.vdot(g, a).real - f) <= 1e-12 * f, (kind, spec)
            assert abs(dual_norm(g, spec) - 1.0) <= 1e-12, (kind, spec)
            # descriptor's prefactor, written out: W diag((sigma_i/||A||)^(p-1)) Z*
            # on the clamped sigma, with every floating-point operation pinned
            desc = descriptor(a, p, k)
            sc = _clamp_small(s, s[0])
            want = (u[:, :4] * (sc / desc.norm_value) ** (p - 1.0)) @ vh[:4, :]
            assert np.array_equal(desc.prefactor, want), (kind, spec)
