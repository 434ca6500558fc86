"""Property tests: verdicts that must not change under the symmetries of the maths,
nor under another name for the same norm."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from kyfan.approx import best_approx, certify_best, unique_1d_probe
from kyfan.core import MatrixSubspace
from kyfan.norms import NormSpec, dual_norm, norm
from kyfan.ortho import check_bj, check_parallel, subspace_certificate

from conftest import rand_complex

TRIALS = 12


def _unitary(rng, n):
    return np.linalg.qr(rand_complex(rng, n, n))[0]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), plateau=st.booleans(),
       pk=st.sampled_from([(2.0, 1), (3.0, 2), (2.0, 3)]))
def test_unique_probe_survives_the_symmetries(seed, plateau, pk):
    """(A, X) -> (UAV, UXV), transposition and conjugation keep the probe's
    verdict, null dimension, value and spread.  The plateau instances (rank-1 X,
    minimizers filling a disk) have a 2-dimensional null space; the others
    have full-rank X."""
    rng = np.random.default_rng(seed)
    n = 3
    if plateau:
        qu, qv = _unitary(rng, n), _unitary(rng, n)
        a = (qu * np.array([rng.uniform(1.5, 3.0)] + [rng.uniform(0.5, 1.0)] * (n - 1))) @ qv.conj().T
        x = np.outer(qu[:, 0], qv[:, 0].conj())
        pk = (2.0, 1)
    else:
        a, x = rand_complex(rng, n, n), rand_complex(rng, n, n)
    u, v = _unitary(rng, n), _unitary(rng, n)
    ref = unique_1d_probe(a, x, *pk, trials=TRIALS)
    assert ref.certified
    for a2, x2 in [(u @ a @ v, u @ x @ v), (a.T, x.T), (a.conj(), x.conj())]:
        probe = unique_1d_probe(a2, x2, *pk, trials=TRIALS)
        assert (probe.certified, probe.null_dim) == (ref.certified, ref.null_dim)
        assert abs(probe.best_value - ref.best_value) <= 1e-7 * ref.best_value
        # the chords fan out from the certified point along the null basis, which
        # a map may turn: the spread moves by at most the fan's angular resolution
        assert abs(probe.spread - ref.spread) <= (1.0 - np.cos(np.pi / TRIALS)) * ref.spread + 1e-6


# every norm that is sigma_1, under its other names: kyfan(p, 1) at any p, and
# every Ky Fan norm of a matrix with one singular value
SIGMA_1_NAMES = ([(NormSpec.kyfan(p, 1), shape) for p in (1.0, 1.3, 2.0, 7.0, 1e7)
                  for shape in ((3, 3), (3, 2))]
                 + [(spec, shape) for spec in (NormSpec.trace(), NormSpec.schatten(1.3),
                                               NormSpec.schatten(3.0))
                    for shape in ((1, 3), (4, 1))])


def _assert_same(x, y, where="result"):
    """x and y agree bit for bit, field by field; a result's spec is skipped."""
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            if f.name != "spec":
                _assert_same(getattr(x, f.name), getattr(y, f.name), where + "." + f.name)
    elif isinstance(x, dict):
        assert x.keys() == y.keys(), where
        for key in x:
            _assert_same(x[key], y[key], "%s[%r]" % (where, key))
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), where
        for i, (xi, yi) in enumerate(zip(x, y)):
            _assert_same(xi, yi, "%s[%d]" % (where, i))
    else:
        assert type(x) is type(y) and np.array_equal(x, y), where


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), case=st.sampled_from(SIGMA_1_NAMES),
       orthogonal=st.booleans())
def test_sigma_1_under_any_name_is_the_spectral_norm(seed, case, orthogonal):
    """norm, dual_norm, best_approx, certify_best, check_bj, check_parallel and
    subspace_certificate give the spectral norm's results bit for bit.  b is
    random or made BJ-orthogonal to a (zero pairing with a's top singular pair),
    and the certificate is asked at the solve's residual, which is orthogonal
    to the subspace."""
    spec, shape = case
    spectral = NormSpec.spectral()
    rng = np.random.default_rng(seed)
    a, b = rand_complex(rng, *shape), rand_complex(rng, *shape)
    if orthogonal:
        u, _, vh = np.linalg.svd(a)
        b -= (u[:, 0].conj() @ b @ vh[0].conj()) * np.outer(u[:, 0], vh[0])
    sub = MatrixSubspace([rand_complex(rng, *shape) for _ in range(1 + seed % 2)])
    # the raw (p, k) the ortho checks take for spec on this shape
    p, k = spec.p, spec.k or min(shape)

    assert norm(a, spec) == norm(a, spectral)
    assert dual_norm(a, spec) == dual_norm(a, spectral)
    res = best_approx(a, sub, spec, starts=4, seed=seed % 7)
    ref = best_approx(a, sub, spectral, starts=4, seed=seed % 7)
    _assert_same(res, ref, "best_approx")
    _assert_same(certify_best(a, sub, spec, res), certify_best(a, sub, spectral, ref),
                 "certify_best")
    _assert_same(check_bj(a, b, p, k), check_bj(a, b, 2, 1), "check_bj")
    _assert_same(check_parallel(a, b, p, k), check_parallel(a, b, 2, 1), "check_parallel")
    _assert_same(subspace_certificate(res.residual, sub, p, k),
                 subspace_certificate(ref.residual, sub, 2, 1), "subspace_certificate")
