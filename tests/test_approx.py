import numpy as np
import pytest

from kyfan.approx import (
    best_approx,
    certify_best,
    lex_compare,
    pk_singular_value_check,
    strict_spectral,
    unique_1d_probe,
)
from kyfan.core import MatrixSubspace
from kyfan.errors import InvalidInputError, UnsupportedError
from kyfan.lab import counterexample_instance
from kyfan.norms import NormSpec, norm

from conftest import lambda_min_norm, rand_complex
from helpers import repetition_probe, uniqueness_instances

A31 = np.diag([3.0, 1.0, 0.0]).astype(complex)
SPAN_I3 = MatrixSubspace([np.eye(3)], field="complex")


def span_of(x):
    return MatrixSubspace([x], field="complex")


def test_best_approx_counterexample_symmetry():
    # |2 - alpha|^p + |alpha|^p is symmetric about alpha = 1 for every p
    a, x = counterexample_instance()
    sub = span_of(x)
    for p in (2.0, 3.0, 6.0):
        res = best_approx(a, sub, NormSpec.schatten(p), starts=10, seed=1)
        assert np.max(np.abs(res.y - x)) <= 1e-6, p
        want, _ = lambda_min_norm(a, -x, NormSpec.schatten(p))
        assert res.value <= want + 1e-7, p


def test_best_approx_least_squares_mean():
    res = best_approx(A31, SPAN_I3, NormSpec.schatten(2), starts=8, seed=0)
    assert np.max(np.abs(res.y - (4.0 / 3.0) * np.eye(3))) <= 1e-6
    assert res.converged and not res.flags


def test_best_approx_chebyshev_center():
    res = best_approx(A31, SPAN_I3, NormSpec.spectral(), starts=8, seed=0)
    assert abs(res.value - 1.5) <= 1e-6
    assert np.max(np.abs(res.y - 1.5 * np.eye(3))) <= 1e-5


def test_best_approx_matches_grid_oracle(rng):
    for spec in [NormSpec.kyfan(2.5, 2), NormSpec.kyfan(1.5, 2)]:
        for t in range(5):
            a = rand_complex(rng, 3, 3)
            x = rand_complex(rng, 3, 3)
            res = best_approx(a, span_of(x), spec, starts=10, seed=t)
            want, _ = lambda_min_norm(a, -x, spec)
            assert res.value <= want + 1e-6 * (1 + want), (spec, t)
            assert res.value >= want - 1e-6 * (1 + want), (spec, t)


def test_best_approx_trace_and_sigma():
    res = best_approx(A31, SPAN_I3, NormSpec.schatten(2), starts=6, seed=0)
    assert set(res.trace) == {"starts", "iterations", "start_gap", "start_values",
                              "duality_gap", "bound", "evaluations"}
    # the Frobenius optimum is smooth: the first polish closes on the Hoelder bound
    assert res.trace["iterations"] == 0 and res.trace["bound"] == "hoelder"
    s = np.linalg.svd(res.residual, compute_uv=False)
    assert np.allclose(res.sigma, s)
    assert abs(res.value - norm(res.residual, res.spec)) <= 1e-12


def test_best_approx_warm_start_hits_optimum():
    exact = SPAN_I3.coefficients((4.0 / 3.0) * np.eye(3))
    res = best_approx(A31, SPAN_I3, NormSpec.schatten(2), starts=2, iters=5,
                      seed=0, extra_coeffs=[exact])
    assert abs(res.value - norm(A31 - (4.0 / 3.0) * np.eye(3), NormSpec.schatten(2))) <= 1e-9


def test_best_approx_validation():
    with pytest.raises(InvalidInputError):
        best_approx(np.eye(2), SPAN_I3, NormSpec.schatten(2))
    with pytest.raises(InvalidInputError):
        best_approx(np.eye(3), MatrixSubspace([], field="complex", shape=(3, 3)),
                    NormSpec.schatten(2))


def test_entry_points_reject_a_subspace_of_another_shape():
    # one boundary: a MatrixSubspace of a's shape, empty or not, else InvalidInputError
    spec = NormSpec.spectral()
    empty3 = MatrixSubspace([], field="complex", shape=(3, 3))
    for sub in (SPAN_I3, empty3, [np.eye(2)]):
        calls = [lambda: best_approx(np.eye(2), sub, spec),
                 lambda: certify_best(np.eye(2), sub, spec, np.eye(2)),
                 lambda: strict_spectral(np.eye(2), sub),
                 lambda: pk_singular_value_check(np.eye(2), sub, 2, 1)]
        for call in calls:
            with pytest.raises(InvalidInputError):
                call()
    with pytest.raises(InvalidInputError, match="shape mismatch"):
        certify_best(np.eye(3), SPAN_I3, spec, np.eye(2))


def test_best_approx_midpoint_convexity(rng):
    for t in range(4):
        a = rand_complex(rng, 3, 3)
        x = rand_complex(rng, 3, 3)
        sub = span_of(x)
        spec = NormSpec.kyfan(3, 2)
        r1 = best_approx(a, sub, spec, starts=6, seed=2 * t)
        r2 = best_approx(a, sub, spec, starts=6, seed=2 * t + 1)
        mid = (r1.coefficients + r2.coefficients) / 2.0
        vm = norm(a - sub.combine(mid), spec)
        assert vm <= max(r1.value, r2.value) + 1e-9


def test_best_approx_nested_basis_monotone(rng):
    a = rand_complex(rng, 3, 3)
    b1 = [np.eye(3)]
    b2 = b1 + [np.diag([1.0, -1.0, 0.0])]
    b3 = b2 + [rand_complex(rng, 3, 3)]
    spec = NormSpec.kyfan(2, 2)
    vals = []
    for basis in (b1, b2, b3):
        sub = MatrixSubspace(basis, field="complex")
        vals.append(best_approx(a, sub, spec, starts=10, seed=3).value)
    assert vals[0] >= vals[1] - 1e-7 and vals[1] >= vals[2] - 1e-7, vals


# --- certificates ------------------------------------------------------------


def test_certify_frobenius_residual_direction():
    res = best_approx(A31, SPAN_I3, NormSpec.schatten(2), starts=8, seed=0)
    cert = certify_best(A31, SPAN_I3, NormSpec.schatten(2), res)
    assert cert.found and cert.singleton
    r = A31 - (4.0 / 3.0) * np.eye(3)
    f_want = r / np.linalg.norm(r)
    assert np.max(np.abs(cert.f_matrix - f_want)) <= 1e-6
    assert abs(np.trace(cert.f_matrix)) <= 1e-7  # zero projection onto span{I}
    assert cert.residual_perp <= 1e-7
    assert abs(cert.pairing - res.value) <= 1e-8
    assert res.certificate is not None


def test_certify_member_zero_residual():
    # the second member leaves a residual of round-off size, not exactly 0
    members = [(2.0 * np.eye(3), SPAN_I3, [NormSpec.schatten(2)]),
               (np.diag([1.0, 2.0]),
                MatrixSubspace([np.eye(2), np.diag([1.0, 0.0])], field="real"),
                [NormSpec.spectral(), NormSpec.kyfan(3, 2), NormSpec.schatten(2)])]
    for a, sub, specs in members:
        for spec in specs:
            res = best_approx(a, sub, spec, starts=4, seed=0)
            assert res.value <= 1e-9
            cert = certify_best(a, sub, spec, res)
            assert cert.found and cert.atoms_used == 0, spec


def test_certify_counterexample_kyfan22():
    a, x = counterexample_instance()
    sub = span_of(x)
    res = best_approx(a, sub, NormSpec.kyfan(2, 2), starts=10, seed=0)
    cert = certify_best(a, sub, NormSpec.kyfan(2, 2), res, cert_tol=1e-8)
    assert cert.found
    assert cert.residual_perp <= 1e-8
    assert abs(cert.pairing - res.value) <= 1e-6 * (1 + res.value)


def test_certify_spectral_needs_mixture():
    # residual diag(1.5, -0.5, -1.5): degenerate top block, the certificate is
    # a genuine convex combination of extreme points
    res = best_approx(A31, SPAN_I3, NormSpec.spectral(), starts=8, seed=0)
    cert = certify_best(A31, SPAN_I3, NormSpec.spectral(), res)
    assert cert.found and not cert.singleton
    assert cert.atoms_used >= 2 and abs(np.sum(cert.weights) - 1.0) <= 1e-12
    assert 0.0 <= cert.residual_lower <= cert.residual_perp
    assert abs(np.trace(cert.f_matrix)) <= 1e-7


def test_certify_rejects_suboptimal_point():
    cert = certify_best(A31, SPAN_I3, NormSpec.schatten(2), np.zeros((3, 3)))
    assert not cert.found
    assert cert.residual_perp > 1e-3
    assert cert.residual_lower > 1e-7  # a proof that Y = 0 is not optimal


def test_certify_global_spot_check(rng):
    a = rand_complex(rng, 3, 3)
    x = rand_complex(rng, 3, 3)
    sub = span_of(x)
    spec = NormSpec.kyfan(2, 2)
    res = best_approx(a, sub, spec, starts=10, seed=5)
    cert = certify_best(a, sub, spec, res)
    assert cert.found
    for _ in range(100):
        c = rng.standard_normal(2) @ np.array([1.0, 1.0j])
        assert res.value <= norm(a - sub.combine([c]), spec) + 1e-9


def test_certify_p_below_two_unsupported():
    res = best_approx(A31, SPAN_I3, NormSpec.schatten(2), starts=4, seed=0)
    with pytest.raises(UnsupportedError):
        certify_best(A31, SPAN_I3, NormSpec.schatten(1.5), res)


# --- uniqueness probe ---------------------------------------------------------


def test_unique_probe_counterexample():
    a, x = counterexample_instance()
    probe = unique_1d_probe(a, x, p=2, k=2, seed=0)
    assert probe.unique_predicted and probe.rank_x == 2
    assert probe.spread <= 1e-6
    assert not probe.violation


def test_unique_probe_plateau():
    # max(|2 - alpha|, 1) is constant on alpha in [1, 3]
    a = np.diag([2.0, 1.0, 1.0])
    x = np.zeros((3, 3))
    x[0, 0] = 1.0
    probe = unique_1d_probe(a, x, p=2, k=1, seed=0)
    assert not probe.unique_predicted
    assert not probe.violation
    assert abs(probe.best_value - 1.0) <= 1e-9
    assert 0.1 < probe.spread <= 2.0 + 1e-6


def test_unique_probe_full_rank(rng):
    a = rand_complex(rng, 3, 3)
    probe = unique_1d_probe(a, np.eye(3), p=2, k=3, seed=1)
    assert probe.unique_predicted and probe.rank_x == 3
    assert probe.spread <= 1e-5


def test_unique_probe_rank_is_scale_free(rng):
    # sigma(X) = s * (1, 1e-11, 0): rank 2 at every scale s
    a = rand_complex(rng, 3, 3)
    for s in [1.0, 1e-3, 1e-6]:
        probe = unique_1d_probe(a, s * np.diag([1.0, 1e-11, 0.0]), p=2, k=2, seed=0)
        assert probe.rank_x == 2 and probe.unique_predicted, s


def test_unique_probe_tiny_basis_matrix(rng):
    # the dependence check is relative to the basis matrix's own norm
    a = rand_complex(rng, 3, 3)
    ref = unique_1d_probe(a, np.eye(3), p=4, k=2, seed=0)
    probe = unique_1d_probe(a, 1e-13 * np.eye(3), p=4, k=2, seed=0)
    assert probe.rank_x == 3
    assert abs(probe.best_value - ref.best_value) <= 1e-12 * ref.best_value


def test_unique_probe_validation():
    with pytest.raises(InvalidInputError):
        unique_1d_probe(np.eye(3), np.zeros((3, 3)), 2, 1)
    with pytest.raises(InvalidInputError):
        unique_1d_probe(np.eye(3), np.eye(2), 2, 1)


def test_unique_probe_p_below_two_unsupported():
    with pytest.raises(UnsupportedError):
        unique_1d_probe(np.eye(3), np.eye(3), 1.5, 2)


def test_unique_probe_needs_both_pin_equations():
    # sigma_1(A - alpha X) = sqrt(1 + |alpha|^2) is least at alpha = 0 only, where
    # G = e1 e1*; X V_G = 0, so only R* U_G = f V_G keeps X from moving the minimizer
    a = np.diag([1.0, 0.0])
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    probe = unique_1d_probe(a, x, p=2, k=1, seed=0)
    assert probe.certified and probe.null_dim == 0 and probe.null_sigma >= 0.5
    assert probe.spread == 0.0 and abs(probe.best_value - 1.0) <= 1e-9


def test_unique_probe_against_repetition_oracle():
    """On full-rank X the certificate proves uniqueness and repetition finds no
    spread; on rank-1 X the chords reach at least as far apart as the
    repetition oracle's polished starts, which under-report the disk."""
    for i, (full, a, x, p, k, seed) in enumerate(uniqueness_instances()):
        if full and i % 3:
            continue  # every third full-rank instance keeps the test short
        probe = unique_1d_probe(a, x, p, k, trials=10, seed=seed)
        spread, best = repetition_probe(a, x, p, k, trials=10, seed=seed)
        assert abs(probe.best_value - best) <= 1e-7 * best, i
        if full:
            assert probe.certified and probe.null_dim == 0 and probe.spread == 0.0, i
            assert spread <= 1e-5, i
        else:
            assert probe.certified and probe.null_dim == 2, i
            assert probe.spread >= spread - 1e-6, i


def test_unique_probe_without_certificate_fans_over_the_span(monkeypatch):
    # nothing pinned: the chords fan over the whole span; on the plateau
    # max(|2 - alpha|, 1) the minimizers fill the disk |2 - alpha| <= 1
    import kyfan.approx as approx

    certify = approx.certify_best

    def not_found(*args, **kw):
        out = certify(*args, **kw)
        out.found = False
        return out

    monkeypatch.setattr(approx, "certify_best", not_found)
    x = np.zeros((3, 3))
    x[0, 0] = 1.0
    probe = unique_1d_probe(np.diag([2.0, 1.0, 1.0]), x, p=2, k=1, seed=0)
    assert not probe.certified and probe.null_dim == 2 and probe.null_sigma == 0.0
    assert 2.0 * np.cos(np.pi / 12) <= probe.spread <= 2.0 + 1e-6


def test_probe_and_pk_check_solve_once(monkeypatch):
    import kyfan.approx as approx

    calls = []
    solve = approx.best_approx
    monkeypatch.setattr(approx, "best_approx", lambda *args, **kw: calls.append(1) or solve(*args, **kw))
    a, x = counterexample_instance()
    assert unique_1d_probe(a, x, p=3, k=2, seed=0).spread == 0.0
    rep = pk_singular_value_check(a, span_of(x), p=3, k=2, seed=0)
    assert rep.passed and rep.certified and rep.pinned.size == 2
    assert len(calls) == 2


# --- strict spectral ----------------------------------------------------------


def test_strict_counterexample_spectrum():
    a, x = counterexample_instance()
    st = strict_spectral(a, span_of(x), starts=10, seed=0)
    assert np.max(np.abs(st.sigma - np.array([1.0, 1.0, 0.5]))) <= 1e-6
    assert np.max(np.abs(st.y - x)) <= 1e-5
    assert st.converged and not st.flags
    assert list(st.multiplicities) == [2, 1]
    assert st.stage_log[1].skipped  # sigma_2 rides the block opened at stage 1


def test_strict_chebyshev_instance():
    st = strict_spectral(A31, SPAN_I3, starts=10, seed=0)
    assert np.max(np.abs(st.y - 1.5 * np.eye(3))) <= 1e-6
    assert abs(st.values[0] - 1.5) <= 1e-7
    assert np.max(np.abs(st.sigma - np.array([1.5, 1.5, 0.5]))) <= 1e-6
    assert st.stage_log[1].skipped and not st.stage_log[2].skipped


def test_strict_member_all_zero(rng):
    x = rand_complex(rng, 3, 3)
    sub = span_of(x)
    a = (0.7 - 0.2j) * sub.onb[0]
    st = strict_spectral(a, sub, starts=6, seed=0)
    assert np.max(st.sigma) <= 1e-8
    assert all(v <= 1e-8 for v in st.values)
    assert np.max(np.abs(st.y - a)) <= 1e-8


def test_strict_stage_values_match_residual():
    a, x = counterexample_instance()
    st = strict_spectral(a, span_of(x), starts=10, seed=0)
    partial = np.sqrt(np.cumsum(st.sigma ** 2))
    for j in range(3):
        assert abs(partial[j] - st.values[j]) <= 2 * st.stage_tol + 1e-9, j


def test_strict_competitors_cannot_beat_later_stages(rng):
    # any Y feasible for the earlier sublevel sets has f_3 >= m_3 - tol
    a, x = counterexample_instance()
    sub = span_of(x)
    st = strict_spectral(a, sub, starts=10, seed=0)
    checked = 0
    for _ in range(300):
        # perturb at the scale of the feasibility tube (stage_tol ~ 2.5e-7)
        radius = 10.0 ** rng.uniform(-8.5, -6.5)
        phase = np.exp(2j * np.pi * rng.uniform())
        c = st.coefficients[0] + radius * phase
        r = a - sub.combine([c])
        s = np.linalg.svd(r, compute_uv=False)
        f = np.sqrt(np.cumsum(s ** 2))
        if f[0] <= st.values[0] + st.stage_tol and f[1] <= st.values[1] + st.stage_tol:
            assert f[2] >= st.values[2] - 10.0 * st.stage_tol
            checked += 1
    assert checked >= 3


def test_strict_lex_minimal_among_samples(rng):
    a, x = counterexample_instance()
    sub = span_of(x)
    st = strict_spectral(a, sub, starts=10, seed=0)
    for _ in range(50):
        c = 2.0 * (rng.standard_normal() + 1j * rng.standard_normal())
        s = np.linalg.svd(a - sub.combine([c]), compute_uv=False)
        assert lex_compare(st.sigma, s, tol=1e-6) != "Greater"


@pytest.mark.parametrize("field", ["real", "complex"])
def test_strict_exact_where_stage_one_is_not_unique(field):
    # sigma_1 = 3 is fixed by every point near the optimum; the later stages
    # decide y, and each must land on it exactly
    cases = [(np.diag([3.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0]), [3.0, 0.5, 0.5], 0.5),
             (np.diag([3.0, 1.0, 0.5, 0.0]), np.diag([0.0, 1.0, 0.0, 0.0]), [3.0, 0.5, 0.0, 0.0], 1.0)]
    for a, x, sigma, c in cases:
        st = strict_spectral(a, MatrixSubspace([x], field=field), starts=6, seed=0)
        assert np.max(np.abs(st.sigma - sigma)) <= 1e-10, (sigma, st.sigma)
        assert np.max(np.abs(st.y - c * x)) <= 1e-10, (sigma, st.y)
        assert st.converged and not st.flags
        assert st.stage_log[0].gap <= 1e-7 and not st.stage_log[1].skipped


def test_strict_spectrum_respects_the_symmetries(rng):
    """(A, S) -> (UAV, USV) and a 1e-15 relative change of A leave the strict
    residual spectrum alone: each block is fixed by a certified solve."""
    for i in range(12):
        n, dim, field = 2 + i % 2, 1 + (i // 2) % 2, ["complex", "real"][(i // 4) % 2]
        a = rand_complex(rng, n, n)
        basis = [rand_complex(rng, n, n) for _ in range(dim)]
        u, _ = np.linalg.qr(rand_complex(rng, n, n))
        v, _ = np.linalg.qr(rand_complex(rng, n, n))
        ref = strict_spectral(a, MatrixSubspace(basis, field=field), starts=6, seed=0)
        moved = strict_spectral(u @ a @ v, MatrixSubspace([u @ b @ v for b in basis], field=field),
                                starts=6, seed=0)
        nudged = strict_spectral(a * (1.0 + 1e-15 * rng.standard_normal((n, n))),
                                 MatrixSubspace(basis, field=field), starts=6, seed=0)
        for st in (ref, moved, nudged):
            assert st.converged and all(s.gap <= 1e-7 for s in st.stage_log), i
        assert np.max(np.abs(moved.sigma - ref.sigma)) <= 1e-7, i
        assert np.max(np.abs(nudged.sigma - ref.sigma)) <= 1e-7, i


@pytest.mark.parametrize("scale", [1e-200, 1e-300])
def test_strict_survives_underflowing_norms(scale):
    # ||A||_F and ||R||_F both underflow to 0 here: no residual may pass for
    # zero, and the values sqrt(sigma_1^2 + ... + sigma_k^2) must not underflow
    a = scale * A31
    st = strict_spectral(a, SPAN_I3, starts=4, seed=0)
    assert st.flags or np.allclose(st.sigma / scale, [1.5, 1.5, 0.5], rtol=1e-6)
    s = st.sigma / scale
    assert np.allclose(np.array(st.values) / scale, np.sqrt(np.cumsum(s * s)), rtol=1e-12, atol=0)
    res = best_approx(a, SPAN_I3, NormSpec.spectral(), starts=4, seed=0)
    cert = certify_best(a, SPAN_I3, NormSpec.spectral(), res)
    assert cert.f_matrix is not None or not cert.found


def test_strict_validation():
    with pytest.raises(InvalidInputError):
        strict_spectral(np.eye(2), SPAN_I3)
    with pytest.raises(InvalidInputError):
        strict_spectral(np.eye(3), MatrixSubspace([], field="complex", shape=(3, 3)))


# --- lexicographic comparison ---------------------------------------------------


def test_lex_compare_knowns():
    assert lex_compare([1.0, 1.0, 0.5], [1.0, 1.0, 0.6]) == "Less"
    assert lex_compare([1.0, 1.0, 0.5], [1.0, 1.0, 0.5]) == "Equal"
    assert lex_compare([1.0, 1.0 + 1e-12, 0.5], [1.0, 1.0, 0.9], tol=1e-9) == "Less"
    assert lex_compare([2.0, 0.0], [1.0, 5.0]) == "Greater"


def test_lex_compare_antisymmetric_transitive(rng):
    flip = {"Less": "Greater", "Greater": "Less", "Equal": "Equal"}
    vecs = [np.round(rng.uniform(0, 2, 3), 1) for _ in range(12)]
    for u in vecs:
        for v in vecs:
            assert lex_compare(v, u) == flip[lex_compare(u, v)]
    order = {"Less": -1, "Equal": 0, "Greater": 1}
    for u in vecs:
        for v in vecs:
            for w in vecs:
                if lex_compare(u, v) == "Less" and lex_compare(v, w) == "Less":
                    assert lex_compare(u, w) == "Less"
    assert order  # keep the mapping referenced


def test_lex_compare_length_mismatch():
    with pytest.raises(InvalidInputError):
        lex_compare([1.0, 2.0], [1.0])


# --- (p,k) singular value consistency ------------------------------------------


def test_pk_check_counterexample():
    a, x = counterexample_instance()
    rep = pk_singular_value_check(a, span_of(x), p=4, k=2, seed=0)
    assert rep.applicable and rep.passed and rep.certified
    assert rep.max_deviation <= 1e-7
    assert np.max(np.abs(rep.pinned - rep.sigma[:2])) <= 1e-7


def test_pk_check_zero_dim_subspace():
    a = np.diag([3.0, 2.0, 1.0])
    sub = MatrixSubspace([], field="complex", shape=(3, 3))
    rep = pk_singular_value_check(a, sub, p=2, k=2)
    assert rep.applicable and rep.passed and rep.max_deviation == 0.0


def test_pk_check_gap_unmet_not_applicable():
    # pinching makes alpha = 0 optimal, so the residual keeps sigma = (1,1,1)
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    rep = pk_singular_value_check(np.eye(3), MatrixSubspace([e12], field="complex"),
                                  p=2, k=2, seed=0)
    assert not rep.applicable
    assert rep.passed


def test_certify_best_certifies_every_kink_solve(rng):
    """2x2 complex dim-2 spectral instances often have their optimum at a kink
    (sigma_1 = sigma_2).  Every solve, whatever the seed and start count, must
    land on a point certify_best can certify: the kink Newton step makes the
    tie exact and the face bound closes only at a certifiable point."""
    failed = []
    for i in range(10):
        a = rand_complex(rng, 2, 2)
        sub = MatrixSubspace([rand_complex(rng, 2, 2) for _ in range(2)], field="complex")
        for seed in range(4):
            for starts in (3, 6):
                res = best_approx(a, sub, NormSpec.spectral(), starts=starts, seed=seed)
                cert = certify_best(a, sub, NormSpec.spectral(), res)
                if not cert.found:
                    failed.append((i, seed, starts, cert.residual_perp))
    assert failed == []
