import numpy as np
import pytest

from kyfan.core import MatrixSubspace, as_matrix, spectrum_blocks, svd
from kyfan.errors import InvalidInputError

from conftest import rand_complex
from helpers import full_right_vectors, herm_eig, project_subspace, psd_power, reconstruct


def test_svd_diagonal_sorted():
    f = svd(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(f.sigma, [3.0, 2.0, 1.0])


def test_svd_zero_rectangular():
    f = svd(np.zeros((2, 3)))
    assert f.sigma.shape == (2,)
    assert np.all(f.sigma == 0.0)


def test_svd_reconstruction(rng):
    # 200 random shapes up to 8x8, reconstruction to 1e-11 * sigma_1
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a = rand_complex(rng, m, n)
        f = svd(a)
        err = np.max(np.abs(reconstruct(f) - a))
        assert err <= 1e-11 * max(f.sigma[0], 1e-300), (m, n, err)


def test_svd_deterministic(rng):
    a = rand_complex(rng, 5, 4)
    f1 = svd(a)
    f2 = svd(a.copy())
    assert np.array_equal(f1.left, f2.left)
    assert np.array_equal(f1.right, f2.right)


def test_svd_clamps_tiny_sigma():
    a = np.diag([1.0, 1e-16])
    assert svd(a).sigma[1] == 0.0


def test_svd_rejects_vector():
    with pytest.raises(InvalidInputError):
        svd(np.ones(3))


def test_full_right_vectors_null_space(rng):
    a = rand_complex(rng, 2, 4)
    s_full, z = full_right_vectors(a)
    assert s_full.shape == (4,)
    assert np.all(s_full[2:] == 0.0)
    assert np.allclose(z.conj().T @ z, np.eye(4), atol=1e-12)
    # trailing columns really are null vectors
    assert np.linalg.norm(a @ z[:, 2:]) <= 1e-12 * max(s_full[0], 1.0)


def test_herm_eig_values():
    w, _ = herm_eig(np.diag([1.0, 4.0, 2.0]))
    assert np.allclose(w, [4.0, 2.0, 1.0])
    w, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])


def test_herm_eig_trace_identity(rng):
    for _ in range(20):
        g = rand_complex(rng, 5, 5)
        h = (g + g.conj().T) / 2
        w, v = herm_eig(h)
        assert abs(np.sum(w) - np.trace(h).real) <= 1e-10 * max(1.0, abs(w[0]))
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-10 * max(1.0, abs(w[0]))


def test_herm_eig_matches_sigma_squared(rng):
    for _ in range(20):
        a = rand_complex(rng, 4, 4)
        s = svd(a).sigma
        w, _ = herm_eig(a.conj().T @ a)
        assert np.max(np.abs(w - s ** 2)) <= 1e-9 * max(s[0] ** 2, 1.0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        herm_eig(np.ones((2, 3)))


def test_psd_power_sqrt():
    assert np.allclose(psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))


def test_psd_power_identity_exponent(rng):
    g = rand_complex(rng, 4, 4)
    h = g @ g.conj().T
    assert np.allclose(psd_power(h, 1.0), h, atol=1e-10)


def test_psd_power_zero_is_range_projection():
    p0 = psd_power(np.diag([4.0, 0.0]), 0)
    assert np.allclose(p0, np.diag([1.0, 0.0]))
    # agrees with the s -> 0+ limit on the positive part
    lim = psd_power(np.diag([4.0, 0.0]), 1e-9)
    assert np.max(np.abs(p0 - lim)) <= 1e-6


def test_psd_power_additivity_on_range(rng):
    for _ in range(10):
        g = rand_complex(rng, 4, 2)
        h = g @ g.conj().T  # rank 2 PSD
        lhs = psd_power(h, 0.7) @ psd_power(h, 0.3)
        assert np.linalg.norm(lhs - h) <= 1e-9 * max(np.linalg.norm(h), 1.0)


def test_psd_power_rejects_indefinite():
    with pytest.raises(InvalidInputError):
        psd_power(np.diag([1.0, -1.0]), 0.5)


def test_spectrum_blocks_basic():
    b = spectrum_blocks(np.array([2.0, 2.0, 1.0]))
    assert list(b.multiplicities) == [2, 1]
    assert np.allclose(b.values, [2.0, 1.0])


def test_spectrum_blocks_merge_below_tol():
    b = spectrum_blocks(np.array([1.0, 1.0 - 1e-12, 0.5]), tol=1e-8)
    assert list(b.multiplicities) == [2, 1]
    assert abs(b.values[0] - 1.0) <= 1e-12


def test_spectrum_blocks_singletons():
    b = spectrum_blocks(np.array([3.0, 2.0, 1.0]))
    assert list(b.multiplicities) == [1, 1, 1]


def test_spectrum_blocks_indexing():
    b = spectrum_blocks(np.array([2.0, 2.0, 1.0, 0.0]))
    assert b.block_of(1) == 0 and b.block_of(2) == 0
    assert b.block_of(3) == 1 and b.block_of(4) == 2
    assert b.block_range(0) == (0, 2)
    assert b.block_range(2) == (3, 4)


def test_spectrum_blocks_rejects_increasing():
    with pytest.raises(InvalidInputError):
        spectrum_blocks(np.array([1.0, 2.0]))


def test_subspace_projection_identity_span():
    sub = MatrixSubspace([np.eye(2)], field="complex")
    onto, perp = project_subspace(np.diag([1.0, 2.0]), sub)
    assert np.allclose(onto, 1.5 * np.eye(2))
    assert np.allclose(onto + perp, np.diag([1.0, 2.0]))


def test_subspace_member_has_zero_perp(rng):
    basis = [rand_complex(rng, 3, 3) for _ in range(2)]
    sub = MatrixSubspace(basis, field="complex")
    x = 0.3 * basis[0] - (1.2 + 0.4j) * basis[1]
    _, perp = sub.project(x)
    assert np.linalg.norm(perp) <= 1e-12 * max(np.linalg.norm(x), 1.0)


def test_subspace_entrywise_orthogonal_supports():
    sub = MatrixSubspace([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], field="complex")
    onto, _ = sub.project(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.linalg.norm(onto) <= 1e-14


def test_subspace_projection_idempotent(rng):
    sub = MatrixSubspace([rand_complex(rng, 3, 2) for _ in range(3)], field="complex")
    onto, _ = sub.project(rand_complex(rng, 3, 2))
    onto2, perp2 = sub.project(onto)
    assert np.linalg.norm(onto2 - onto) <= 1e-12
    assert np.linalg.norm(perp2) <= 1e-12


def test_subspace_real_field_coefficients():
    sub = MatrixSubspace([np.eye(2)], field="real")
    c = sub.coefficients(1j * np.eye(2))
    assert c.dtype == float
    # a purely imaginary multiple is orthogonal to the real span
    assert abs(c[0]) <= 1e-14


def test_subspace_real_vs_complex_dim():
    x = np.diag([1.0, -1.0])
    real_sub = MatrixSubspace([x, 1j * x], field="real")
    assert real_sub.dim == 2
    with pytest.raises(InvalidInputError):
        MatrixSubspace([x, 1j * x], field="complex")  # dependent over C


def test_subspace_onb_is_orthonormal(rng):
    sub = MatrixSubspace([rand_complex(rng, 4, 4) for _ in range(4)], field="complex")
    for i, e in enumerate(sub.onb):
        for j, f in enumerate(sub.onb):
            got = np.vdot(f, e)
            want = 1.0 if i == j else 0.0
            assert abs(got - want) <= 1e-12, (i, j)


def test_subspace_rejects_dependent_and_mixed_shapes():
    with pytest.raises(InvalidInputError):
        MatrixSubspace([np.eye(2), 2.0 * np.eye(2)], field="complex")
    with pytest.raises(InvalidInputError):
        MatrixSubspace([np.eye(2), np.eye(3)], field="complex")
    with pytest.raises(InvalidInputError):
        MatrixSubspace([], field="complex")  # needs explicit shape
    with pytest.raises(InvalidInputError):
        MatrixSubspace([np.eye(2)], field="rational")


def test_empty_subspace_with_shape():
    sub = MatrixSubspace([], field="complex", shape=(2, 2))
    assert sub.dim == 0
    onto, perp = sub.project(np.eye(2))
    assert np.linalg.norm(onto) == 0.0
    assert np.allclose(perp, np.eye(2))


def test_as_matrix_widens_real():
    a = as_matrix(np.eye(2))
    assert a.dtype == complex
