"""Property tests: verdicts that must not change under the symmetries of the maths."""

import numpy as np
from hypothesis import given, settings, strategies as st

from kyfan.approx import unique_1d_probe

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
