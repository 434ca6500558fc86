import numpy as np
import pytest

from kyfan.errors import InvalidInputError
from kyfan.norms import NormSpec, dual_norm, norm, norm_of_sigma

from conftest import dual_gauge_oracle, rand_complex, rand_with_sigma
from helpers import variational_norm_check


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_kyfan_values_on_diagonals():
    a = np.diag([3.0, 2.0, 1.0])
    assert abs(norm(a, NormSpec.kyfan(1, 2)) - 5.0) <= 1e-12
    assert abs(norm(a, NormSpec.kyfan(2, 2)) - np.sqrt(13.0)) <= 1e-12
    assert abs(norm(np.eye(3), NormSpec.kyfan(4, 3)) - 3.0 ** 0.25) <= 1e-12


def test_special_members(rng):
    a = rand_complex(rng, 4, 4)
    s = np.linalg.svd(a, compute_uv=False)
    assert abs(norm(a, NormSpec.spectral()) - s[0]) <= 1e-12 * s[0]
    assert abs(norm(a, NormSpec.trace()) - np.sum(s)) <= 1e-10
    assert abs(norm(a, NormSpec.schatten(2)) - np.linalg.norm(a)) <= 1e-10


def test_norm_of_sigma_agrees(rng):
    a = rand_complex(rng, 5, 3)
    s = np.linalg.svd(a, compute_uv=False)
    for spec in (NormSpec.kyfan(3, 2), NormSpec.spectral(), NormSpec.schatten(1.5)):
        assert abs(norm(a, spec) - norm_of_sigma(s, spec)) <= 1e-12 * (1 + s[0])


def test_norm_broadcasts_stacks(rng):
    stack = np.stack([rand_complex(rng, 3, 3) for _ in range(7)])
    spec = NormSpec.kyfan(2.5, 2)
    vals = norm(stack, spec)
    assert vals.shape == (7,)
    for i in range(7):
        assert abs(vals[i] - norm(stack[i], spec)) <= 1e-12


def test_zero_matrix_norms():
    z = np.zeros((3, 2))
    for spec in (NormSpec.kyfan(2, 1), NormSpec.spectral(), NormSpec.trace()):
        assert norm(z, spec) == 0.0


def test_unitary_invariance(rng):
    for _ in range(10):
        a = rand_complex(rng, 4, 4)
        u = haar_unitary(rng, 4)
        v = haar_unitary(rng, 4)
        for spec in (NormSpec.kyfan(2, 2), NormSpec.kyfan(3.5, 3),
                     NormSpec.spectral(), NormSpec.schatten(1)):
            x, y = norm(u @ a @ v, spec), norm(a, spec)
            assert abs(x - y) <= 1e-10 * max(1.0, y), spec


def test_monotone_in_k_and_p(rng):
    for _ in range(10):
        a = rand_complex(rng, 5, 4)
        for p in (1.0, 2.0, 3.0):
            vals = [norm(a, NormSpec.kyfan(p, k)) for k in range(1, 5)]
            assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(3))
        for k in (1, 2, 4):
            vals = [norm(a, NormSpec.kyfan(p, k)) for p in (1.0, 1.5, 2.0, 4.0, 32.0)]
            assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(4))


def test_triangle_and_homogeneity(rng):
    for _ in range(20):
        a = rand_complex(rng, 4, 3)
        b = rand_complex(rng, 4, 3)
        c = complex(rng.standard_normal(), rng.standard_normal())
        for spec in (NormSpec.kyfan(2.5, 2), NormSpec.spectral(), NormSpec.trace()):
            na, nb = norm(a, spec), norm(b, spec)
            assert norm(a + b, spec) <= na + nb + 1e-10 * (na + nb)
            assert abs(norm(c * a, spec) - abs(c) * na) <= 1e-10 * (1 + abs(c) * na)


def test_large_p_stability(rng):
    a = rand_complex(rng, 4, 4)
    s1 = np.linalg.svd(a, compute_uv=False)[0]
    for k in (1, 2, 4):
        v = norm(a, NormSpec.kyfan(1e4, k))
        assert np.isfinite(v)
        assert s1 - 1e-12 <= v <= s1 * (k ** (1.0 / 1e4)) + 1e-12


def test_p_cap_redirects_to_spectral(rng):
    a = rand_complex(rng, 3, 3)
    s1 = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(norm(a, NormSpec.kyfan(1e7, 2)) - s1) <= 1e-12 * s1


def test_resolve_and_label():
    spec = NormSpec.kyfan(3, 2)
    assert spec.resolve(4) == (3.0, 2)
    assert spec.label() == "kyfan:p=3,k=2"
    assert NormSpec.schatten(4).resolve(3) == (4.0, 3)
    assert NormSpec.schatten(4).label() == "schatten:p=4"
    assert NormSpec.spectral().resolve(5) == (2.0, 1)
    # every norm that is sigma_1 resolves to the one pair (2, 1)
    for spec, n0 in [(NormSpec.kyfan(1, 1), 3), (NormSpec.kyfan(7, 1), 3),
                     (NormSpec.trace(), 1), (NormSpec.kyfan(1e7, 2), 3)]:
        assert spec.resolve(n0) == (2.0, 1), spec
    assert NormSpec.spectral().label() == "spectral"


def test_invalid_specs_rejected():
    a = np.eye(3)
    with pytest.raises(InvalidInputError):
        norm(a, NormSpec.kyfan(0.5, 1))
    with pytest.raises(InvalidInputError):
        norm(a, NormSpec.kyfan(2, 4))
    with pytest.raises(InvalidInputError):
        norm(a, NormSpec.kyfan(2, 0))
    with pytest.raises(InvalidInputError):
        norm(np.ones(3), NormSpec.spectral())
    with pytest.raises(InvalidInputError):
        norm(a, NormSpec("fancy", 2, 1))


# --- dual norm ---------------------------------------------------------------


def test_dual_of_spectral_is_trace():
    assert abs(dual_norm(np.diag([1.0, 1.0]), NormSpec.spectral()) - 2.0) <= 1e-12


def test_frobenius_self_dual():
    g = np.diag([3.0, 4.0])
    assert abs(dual_norm(g, NormSpec.schatten(2)) - 5.0) <= 1e-10


def test_dual_of_trace_is_spectral(rng):
    g = rand_complex(rng, 3, 3)
    s1 = np.linalg.svd(g, compute_uv=False)[0]
    assert abs(dual_norm(g, NormSpec.trace()) - s1) <= 1e-9 * s1


def test_dual_matches_grid_oracle():
    # identity with kyfan(3,2): oracle is a dense monotone-ball grid search
    got = dual_norm(np.eye(3), NormSpec.kyfan(3, 2))
    want = dual_gauge_oracle(np.ones(3), p=3.0, k=2)
    assert abs(got - want) <= 1e-4, (got, want)


def test_dual_matches_grid_oracle_random(rng):
    tied_or_deficient = ([2.0, 2.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                         [2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    mats = [rand_complex(rng, 3, 3) for _ in range(12)]
    mats += [rand_with_sigma(rng, s) for s in tied_or_deficient]
    for g in mats:
        d = np.linalg.svd(g, compute_uv=False)
        for p, k in ((2.0, 2), (3.0, 2), (4.0, 3), (2.5, 1)):
            got = dual_norm(g, NormSpec.kyfan(p, k))
            want = dual_gauge_oracle(d, p=p, k=k)
            assert abs(got - want) <= 2e-4 * (1 + want), (p, k, got, want)


def test_dual_kyfan_k_norm_and_k1_identities(rng):
    # kyfan(1,k) dual = max(d_1, sum d / k); kyfan(p,1) dual = sum d (trace norm)
    for sigma in (None, [2.0, 2.0, 1.0, 0.0], [5.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]):
        g = rand_complex(rng, 4, 4) if sigma is None else rand_with_sigma(rng, sigma)
        d = np.linalg.svd(g, compute_uv=False)
        for k in range(1, 5):
            want = max(d[0], np.sum(d) / k)
            got = dual_norm(g, NormSpec.kyfan(1, k))
            assert abs(got - want) <= 1e-12 * want, (sigma, k, got, want)
        for p in (1.0, 1.5, 2.0, 7.0, 30.0):
            got = dual_norm(g, NormSpec.kyfan(p, 1))
            assert abs(got - np.sum(d)) <= 1e-12 * np.sum(d), (sigma, p, got)


def test_dual_norm_absolutely_homogeneous(rng):
    g = rand_complex(rng, 4, 4)
    for spec in (NormSpec.kyfan(1.5, 2), NormSpec.kyfan(3, 3), NormSpec.kyfan(1, 2),
                 NormSpec.schatten(3), NormSpec.spectral()):
        base = dual_norm(g, spec)
        for c in (1e-200, 1e-8, 1.0, 1e8, 1e200):
            got = dual_norm(c * np.exp(0.7j) * g, spec)
            assert abs(got - c * base) <= 1e-12 * c * base, (spec, c, got)


def test_dual_norm_takes_one_values_only_svd(rng, monkeypatch):
    # the dual gauge reads the singular values alone, so no factor is computed
    g = rand_complex(rng, 4, 3)
    svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for spec in (NormSpec.kyfan(3, 2), NormSpec.schatten(2), NormSpec.spectral()):
        calls.clear()
        dual_norm(g, spec)
        assert len(calls) == 1, spec
        assert calls[0].get("compute_uv") is False, spec


def test_dual_schatten_holder_conjugate(rng):
    # dual of schatten p is schatten q with 1/p + 1/q = 1
    for _ in range(8):
        g = rand_complex(rng, 4, 4)
        s = np.linalg.svd(g, compute_uv=False)
        for p in (2.0, 3.0, 1.5):
            q = p / (p - 1.0)
            want = float(np.sum(s ** q) ** (1.0 / q))
            got = dual_norm(g, NormSpec.schatten(p))
            assert abs(got - want) <= 1e-7 * (1 + want), p


def test_duality_pairing_inequality(rng):
    for _ in range(30):
        a = rand_complex(rng, 4, 4)
        g = rand_complex(rng, 4, 4)
        for spec in (NormSpec.kyfan(2, 2), NormSpec.kyfan(3, 1), NormSpec.spectral()):
            pairing = abs(np.real(np.trace(g.conj().T @ a)))
            assert pairing <= dual_norm(g, spec) * norm(a, spec) + 1e-8


def test_dual_norm_attained_by_feasible_point(rng):
    # the dual value is a sup over the unit ball: sampled feasible X never beat it
    g = rand_complex(rng, 3, 3)
    spec = NormSpec.kyfan(2.5, 2)
    dv = dual_norm(g, spec)
    for _ in range(50):
        x = rand_complex(rng, 3, 3)
        x = x / norm(x, spec)
        assert np.real(np.trace(g.conj().T @ x)) <= dv + 1e-9


def test_dual_zero_matrix():
    assert dual_norm(np.zeros((2, 2)), NormSpec.kyfan(2, 1)) == 0.0


# --- variational cross-check -------------------------------------------------


def test_variational_check_top_vectors_attain():
    assert abs(variational_norm_check(np.diag([2.0, 1.0]), p=2, k=1) - 2.0) <= 1e-12
    assert variational_norm_check(np.zeros((2, 2)), p=2, k=1) == 0.0


def test_variational_check_matches_norm(rng):
    for _ in range(10):
        a = rand_complex(rng, 3, 3)
        got = variational_norm_check(a, p=3, k=2, trials=16, seed=7)
        want = norm(a, NormSpec.kyfan(3, 2))
        assert abs(got - want) <= 1e-6 * (1 + want)


def test_variational_check_interior_samples_below(rng):
    a = rand_complex(rng, 4, 4)
    want = norm(a, NormSpec.kyfan(2, 2))
    got = variational_norm_check(a, p=2, k=2, trials=64, seed=3)
    assert got <= want + 1e-9

def test_variational_check_validates():
    with pytest.raises(InvalidInputError):
        variational_norm_check(np.eye(2), p=0.5, k=1)
    with pytest.raises(InvalidInputError):
        variational_norm_check(np.eye(2), p=2, k=3)
