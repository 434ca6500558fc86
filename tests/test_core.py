import numpy as np
import pytest

from kyfan.core import MatrixSubspace, as_matrix, negligible, spectrum_blocks
from kyfan.errors import InvalidInputError

from conftest import rand_complex
from helpers import (full_right_vectors, herm_eig, loop_spectrum_blocks, loop_subspace_maps,
                     project_subspace, psd_power)


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
        s = np.linalg.svd(a, compute_uv=False)
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
    b = spectrum_blocks(np.array([1.0, 1.0 - 1e-12, 0.5]))
    assert list(b.multiplicities) == [2, 1]
    assert abs(b.values[0] - 1.0) <= 1e-12


def test_spectrum_blocks_singletons():
    b = spectrum_blocks(np.array([3.0, 2.0, 1.0]))
    assert list(b.multiplicities) == [1, 1, 1]


def test_spectrum_blocks_indexing():
    b = spectrum_blocks(np.array([2.0, 2.0, 1.0, 0.0]))
    assert b.block_of(1) == 0 and b.block_of(2) == 0
    assert b.block_of(3) == 1 and b.block_of(4) == 2


def test_spectrum_blocks_matches_the_loop(rng):
    # same break test as the loop, so the same blocks; the block means sum at
    # most 8 values in another order, so they agree to (8 - 1) eps relative
    for t in range(2000):
        n = 1 + t % 8
        s = np.sort(rng.uniform(0.0, 3.0, n))[::-1]
        for i in rng.integers(0, n, size=t % 3):
            s[i:i + 2] = s[i] * (1.0 - rng.choice([0.0, 1e-9, 1e-8, 2e-8]))
        s = np.sort(s)[::-1]
        if t % 5 == 0:
            s[rng.integers(0, n):] = 0.0
        b = spectrum_blocks(s)
        values, mults = loop_spectrum_blocks(s)
        assert np.array_equal(b.multiplicities, mults), s
        assert np.allclose(b.values, values, rtol=7 * np.finfo(float).eps, atol=0.0), s


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


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_subspace_maps_match_the_per_element_loop(rng, field, dim):
    # coefficients, combine, project and real_coordinates are one matrix
    # product each, on one matrix or a stack, against one inner product per element
    sub = MatrixSubspace([rand_complex(rng, 3, 4) for _ in range(dim)], field=field, shape=(3, 4))
    xs = np.array([rand_complex(rng, 3, 4) for _ in range(6)]).reshape(2, 3, 3, 4)
    cs = rng.standard_normal((2, 3, dim)) + (1j * rng.standard_normal((2, 3, dim))
                                             if field == "complex" else 0.0)
    got_c, got_y, got_x = sub.coefficients(xs), sub.combine(cs), sub.real_coordinates(xs)
    onto, perp = sub.project(xs)
    assert got_c.shape == (2, 3, dim) and got_y.shape == (2, 3, 3, 4)
    assert got_x.shape == (2, 3, len(sub.rows)) == (2, 3, dim * (1 if field == "real" else 2))
    assert got_c.dtype == (float if field == "real" else complex)
    for i in range(2):
        for j in range(3):
            c, y, xr = loop_subspace_maps(sub, xs[i, j], cs[i, j])
            c_of_x, onto_ref, _ = loop_subspace_maps(sub, xs[i, j], c)
            assert np.max(np.abs(got_c[i, j] - c), initial=0.0) <= 1e-14
            assert np.max(np.abs(got_y[i, j] - y)) <= 1e-14
            assert np.max(np.abs(got_x[i, j] - xr), initial=0.0) <= 1e-14
            assert np.max(np.abs(onto[i, j] - onto_ref)) <= 1e-14
            assert np.max(np.abs(perp[i, j] - (xs[i, j] - onto_ref))) <= 1e-14
            # and on one matrix
            assert np.max(np.abs(sub.coefficients(xs[i, j]) - c), initial=0.0) <= 1e-14
            assert np.max(np.abs(sub.real_coordinates(xs[i, j]) - xr), initial=0.0) <= 1e-14
            assert np.max(np.abs(sub.combine(cs[i, j]) - y)) <= 1e-14
    # x -> x @ rows is an isometry onto the subspace and inverts real_coordinates
    x = got_x[0, 0]
    y = (x @ sub.rows).reshape(sub.shape)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-14
    assert np.max(np.abs(sub.real_coordinates(y) - x), initial=0.0) <= 1e-14


def test_subspace_rejects_dependent_and_mixed_shapes():
    with pytest.raises(InvalidInputError):
        MatrixSubspace([np.eye(2), 2.0 * np.eye(2)], field="complex")
    with pytest.raises(InvalidInputError):
        MatrixSubspace([np.eye(2), np.eye(3)], field="complex")
    with pytest.raises(InvalidInputError):
        MatrixSubspace([], field="complex")  # needs explicit shape
    with pytest.raises(InvalidInputError):
        MatrixSubspace([np.eye(2)], field="rational")


def test_subspace_validation_is_scale_free(rng):
    # the basis {c I, c diag(1, -1)} is orthogonal at every c; its Gram matrix
    # underflows below c = 1e-160 and overflows above 1e160
    bases = [([np.eye(2), np.diag([1.0, -1.0])], "complex"),
             ([rand_complex(rng, 3, 2) for _ in range(3)], "complex"),
             ([np.eye(2), 1j * np.eye(2)], "real"),
             ([np.eye(2), 1j * np.eye(2)], "complex"),
             ([np.eye(2), np.diag([1.0, 1.0 + 1e-14])], "complex")]
    for t, (basis, field) in enumerate(bases):
        try:
            want = MatrixSubspace(basis, field=field)
        except InvalidInputError:
            want = None
        for c in 10.0 ** np.arange(-300, 301, 25):
            if want is None:
                with pytest.raises(InvalidInputError):
                    MatrixSubspace([c * b for b in basis], field=field)
                continue
            sub = MatrixSubspace([c * b for b in basis], field=field)
            assert sub.dim == want.dim, (t, c)
            assert np.max(np.abs(sub.onb - want.onb)) <= 1e-14, (t, c)


def test_empty_subspace_with_shape():
    sub = MatrixSubspace([], field="complex", shape=(2, 2))
    assert sub.dim == 0
    onto, perp = sub.project(np.eye(2))
    assert np.linalg.norm(onto) == 0.0
    assert np.allclose(perp, np.eye(2))


def test_as_matrix_widens_real():
    a = as_matrix(np.eye(2))
    assert a.dtype == complex


def test_negligible_is_scale_free():
    # at 1e-300 and 1e300 ||A||_F itself under- and overflows
    a = np.diag([3.0, 1.0, 0.0])
    for s in (1e-300, 1e-200, 1.0, 1e200, 1e300):
        assert negligible(1e-16 * s * a, s * a), s
        assert not negligible(1e-10 * s * a, s * a), s
    assert negligible(np.zeros((2, 2)), np.zeros((2, 2)))
    assert not negligible(1e-300 * np.eye(2), np.zeros((2, 2)))
