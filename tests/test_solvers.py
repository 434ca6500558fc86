"""The fused value-and-gradient path of the solvers against the subdifferential
descriptor, which stays the independent oracle."""

import numpy as np
import pytest

from kyfan.approx import _penalty
from kyfan.core import MatrixSubspace
from kyfan.norms import NormSpec, norm
from kyfan.solvers import Objective, x_of_coeffs
from kyfan.subdiff import canonical_extreme, descriptor

from conftest import rand_complex, rand_with_sigma

SPECS = [NormSpec.spectral(), NormSpec.kyfan(2, 2), NormSpec.kyfan(3, 2),
         NormSpec.kyfan(7, 3), NormSpec.kyfan(3, 1), NormSpec.schatten(3)]

# random, tied across k = 2 and 3, and rank-deficient residual spectra
SPECTRA = [None, [3.0, 2.0, 2.0, 2.0], [2.0, 1.0, 0.0, 0.0]]


def oracle_grad(obj, r):
    """Pull-back of canonical_extreme(descriptor(r)), one basis matrix at a time."""
    desc = descriptor(r, obj.p_eff, obj.k_eff)
    out = []
    for e in obj.subspace.onb:
        pair = 0.0 if desc.at_zero else complex(np.trace(canonical_extreme(desc).conj().T @ e))
        out += [-pair.real, pair.imag] if obj.subspace.field == "complex" else [-pair.real]
    return np.array(out)


def instance(rng, sigma, field, m=4, n=4, dim=2):
    """(a, subspace, x) whose residual at x has the given singular values."""
    r = rand_complex(rng, m, n) if sigma is None else rand_with_sigma(rng, sigma, m, n)
    sub = MatrixSubspace([rand_complex(rng, m, n) for _ in range(dim)], field=field)
    c = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if field == "complex" else 0)
    return r + sub.combine(c), sub, x_of_coeffs(c, sub)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("sigma", SPECTRA, ids=["random", "tied", "rank_deficient"])
def test_fused_gradient_matches_descriptor_oracle(rng, field, sigma):
    for shape in [(4, 4), (4, 5), (5, 4)]:
        a, sub, x = instance(rng, sigma, field, *shape)
        for spec in SPECS:
            obj = Objective(a, sub, spec)
            r = obj.residual(x)
            f, g = obj.value_and_grad(x)
            assert abs(f - norm(r, spec)) <= 1e-12 * f, spec
            want = oracle_grad(obj, r)
            assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want), (shape, spec)


def test_fused_gradient_at_zero_and_below_p2(rng):
    sub = MatrixSubspace([rand_complex(rng, 3, 3)], field="complex")
    obj = Objective(np.zeros((3, 3)), sub, NormSpec.kyfan(3, 2))
    f, g = obj.value_and_grad(np.zeros(2))
    assert f == 0.0 and np.array_equal(g, np.zeros(2))
    for spec in [NormSpec.kyfan(1.5, 2), NormSpec.trace()]:
        obj = Objective(rand_complex(rng, 3, 3), sub, spec)
        f, g = obj.value_and_grad(np.ones(2))
        assert g is None
        assert abs(f - obj.value(np.ones(2))) <= 1e-12 * f


def test_fused_gradient_central_difference(rng):
    h = 1e-6
    for t in range(12):
        field = ["real", "complex"][t % 2]
        a, sub, x = instance(rng, None, field, 3, 4)
        for spec in SPECS:
            obj = Objective(a, sub, spec)
            _, g = obj.value_and_grad(x)
            eye = np.eye(x.size)
            fd = np.array([(obj.value(x + h * e) - obj.value(x - h * e)) / (2 * h) for e in eye])
            assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd))), (t, spec)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_strict_penalty_gradient_is_weighted_stage_oracle(rng, field):
    mu = 7.0
    for sigma in SPECTRA:
        a, sub, x = instance(rng, sigma, field, 4, 4)
        stages = [Objective(a, sub, NormSpec.kyfan(2, j)) for j in range(1, 5)]
        r = stages[0].residual(x)
        fs = np.sqrt(np.cumsum(np.linalg.svd(r, compute_uv=False) ** 2))
        for k in range(2, 5):
            # stages 1, 3 violated (bound below f_j), stage 2 within its bound
            barr = fs[: k - 1] + np.array([-0.1, 0.1, -0.1])[: k - 1]
            value, value_and_grad, value_many = _penalty(stages[0], k, barr, mu)
            v, g = value_and_grad(x)
            want = oracle_grad(stages[k - 1], r)
            for j in range(1, k):
                if fs[j - 1] > barr[j - 1]:
                    want = want + mu * oracle_grad(stages[j - 1], r)
            assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want), (sigma, k)
            assert abs(v - value(x)) <= 1e-12 * v
            assert abs(v - value_many(x[None])[0]) <= 1e-12 * v


def test_one_svd_per_fused_evaluation(rng, monkeypatch):
    a, sub, x = instance(rng, None, "complex", 4, 4)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    Objective(a, sub, NormSpec.kyfan(3, 2)).value_and_grad(x)
    assert len(calls) == 1
    _, value_and_grad, _ = _penalty(Objective(a, sub, NormSpec.kyfan(2, 1)), 3,
                                    np.array([0.0, 0.0]), 5.0)
    value_and_grad(x)
    assert len(calls) == 2
