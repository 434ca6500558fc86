import numpy as np
import pytest

from kyfan.approx import certify_best
from kyfan.core import MatrixSubspace
from kyfan.errors import InvalidInputError
from kyfan.norms import NormSpec, norm
from kyfan.ortho import (
    check_bj,
    check_eps_bj,
    check_parallel,
    inner_range,
    subspace_certificate,
    verify_certificate,
)
from kyfan.subdiff import (canonical_extreme, descriptor, dir_derivative, membership,
                           sample_extreme)

from conftest import lambda_min_norm, orthogonal_to, rand_complex, rand_with_sigma, tied_probe
from helpers import golden_min, sampled_direction_gap, zoom_extremes

E21 = np.array([[0.0, 0.0], [1.0, 0.0]])


def test_inner_range_singletons():
    r = inner_range(np.diag([1.0, 0.0]), E21, p=2, k=1)
    assert r.singleton and abs(r.fixed_part) <= 1e-14
    assert -r.extreme(-1)[1] <= 1e-14 and r.extreme(1)[1] <= 1e-14
    r = inner_range(np.diag([2.0, 1.0]), np.diag([0.0, 1.0]), p=2, k=1)
    assert r.singleton and r.extreme(1)[1] <= 1e-14
    # T = {1j}: h is largest at arg(1j) and smallest opposite it
    r = inner_range(np.diag([2.0, 1.0]), np.diag([1j, 0.0]), p=2, k=1)
    assert r.singleton and abs(r.fixed_part - 1j) <= 1e-14
    (theta_min, h_min, t_min), (theta_max, h_max, t_max) = r.extreme(-1), r.extreme(1)
    assert abs(theta_max - np.pi / 2) <= 1e-14 and abs(theta_min + np.pi / 2) <= 1e-14
    assert abs(h_max - 1.0) <= 1e-14 and abs(h_min + 1.0) <= 1e-14 and t_min == t_max == 1j
    assert abs(r.support(theta_max) - 1.0) <= 1e-14 and abs(r.support(theta_min) + 1.0) <= 1e-14


def test_inner_range_degenerate_interval():
    # T = {<Bu, u> : ||u|| = 1} = [-1, 1] for B = diag(1,-1) at A = I
    r = inner_range(np.eye(2), np.diag([1.0, -1.0]), p=2, k=1)
    assert not r.singleton
    (theta_min, h_min, _), (theta_max, h_max, t_max) = r.extreme(-1), r.extreme(1)
    assert abs(h_min) <= 1e-9
    assert abs(h_max - 1.0) <= 1e-9 and abs(abs(t_max) - 1.0) <= 1e-12
    lo, hi = r.real_interval()
    assert abs(lo + 1.0) <= 1e-9 and abs(hi - 1.0) <= 1e-9
    # h(theta) = |cos theta|: largest at 0 or pi, smallest (0) at +-pi/2
    assert abs(r.support(theta_max) - 1.0) <= 1e-12
    assert abs(r.support(theta_min)) <= 1e-12


def test_inner_range_bounded_by_b_norm(rng):
    for t in range(15):
        a = rand_complex(rng, 3, 3)
        b = rand_complex(rng, 3, 3)
        p, k = float(rng.choice([2.0, 3.0])), int(rng.integers(1, 4))
        r = inner_range(a, b, p, k)
        nb = norm(b, NormSpec.kyfan(p, k))
        min_abs, max_abs = max(0.0, -r.extreme(-1)[1]), r.extreme(1)[1]
        assert max_abs <= nb + 1e-8 * (1 + nb)
        assert min_abs <= max_abs + 1e-12
        gs = sample_extreme(r.desc, seed=t, count=16)
        for g in gs:
            t_s = complex(np.trace(g.conj().T @ b))
            assert min_abs - 1e-9 <= abs(t_s) <= max_abs + 1e-9


def test_extremes_reach_the_zoom_oracle(rng):
    # the secant on h' ends no worse than the scan refined by four zooms, on
    # generic (a singleton T), tied (boundary rank r = 1 and r = 3),
    # rank-deficient and rectangular A
    cases = [((3.0, 2.0, 1.5, 1.0), None, 2), ((3.0, 2.0, 2.0, 1.0), None, 2),
             ((3.0, 2.0, 2.0, 2.0, 2.0, 1.0), None, 4), ((2.0, 1.0, 0.0, 0.0), None, 3),
             ((2.0, 1.0, 1.0), (3, 5), 2), ((2.0, 1.0, 1.0), (5, 3), 2)]
    searched = 0
    for sigma, shape, k in cases:
        m, n = shape or (len(sigma), len(sigma))
        for p in (2.0, 3.0, 16.0):
            for _ in range(4):
                a = rand_with_sigma(rng, sigma, m, n)
                b = rand_complex(rng, m, n)
                r = inner_range(a, b, p, k)
                nb = norm(b, NormSpec.kyfan(p, k))
                (_, h_lo), (_, h_hi) = zoom_extremes(r)
                for sign, want in ((-1, h_lo), (1, h_hi)):
                    theta, h, t = r.extreme(sign)
                    assert sign * h >= sign * want - 1e-13 * nb, (sigma, shape, p, sign, h, want)
                    assert abs(h - (np.exp(-1j * theta) * t).real) <= 1e-15 * nb
                    assert abs(h - r.support(theta)) <= 1e-13 * nb
                searched += not r.singleton
    assert searched == 5 * 3 * 4


def test_searches_scan_once_and_only_where_read(rng, monkeypatch):
    # real-mode check_eps_bj reads h(0) and h(pi) only; check_bj and
    # check_parallel each scan 256 directions once and refine by eigh alone
    import kyfan.ortho as ortho

    stacks, eighs = [], []
    top_eigsum, eigh = ortho.top_eigsum, np.linalg.eigh

    def counting_top_eigsum(h, r):
        stacks.append(np.shape(h)[:-2])
        return top_eigsum(h, r)

    def counting_eigh(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(ortho, "top_eigsum", counting_top_eigsum)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    a = rand_with_sigma(rng, [3.0, 2.0, 2.0, 1.0])
    b = rand_complex(rng, 4, 4)
    for p in (2.0, 3.0):
        stacks.clear(), eighs.clear()
        check_eps_bj(a, b, p, 2, eps=0.1, mode="real")
        assert sum(int(np.prod(s)) for s in stacks) == 2 and not eighs, (p, stacks, eighs)
        for check in (check_bj, check_parallel):
            stacks.clear()
            check(a, b, p, 2)
            assert stacks == [(256,)], (p, check.__name__, stacks)


def test_extremes_where_h_is_flat():
    # A = I2, B = E12: T is the disk of radius 1/2 at 0 and h = 1/2 in every
    # direction, so h' changes sign at neither end of either search's bracket
    e12 = E21.T
    r = inner_range(np.eye(2), e12, 2, 1)
    for sign in (-1, 1):
        _, h, t = r.extreme(sign)
        assert abs(h - 0.5) <= 1e-15 and abs(abs(t) - 0.5) <= 1e-15, sign
    bj = check_bj(np.eye(2), e12, 2, 1)
    assert bj.orthogonal and bj.min_abs == 0.0
    assert bj.witness is not None and bj.witness_residual <= 1e-8
    assert abs(check_parallel(np.eye(2), e12, 2, 1).max_abs - 0.5) <= 1e-15


def test_a_negative_arc_between_scan_directions_is_refuted():
    # T is a segment at distance delta from 0 whose arc of h < 0, about 1e-3 rad
    # wide, falls between two of the 256 scan directions: the scan sees h >= 0,
    # the face search proves 0 not in T, and its nearest point's direction refutes
    a = np.eye(2)
    spec = NormSpec.kyfan(2, 1)
    for delta in (1e-6, 1e-7):
        b = np.exp(-0.1j * 2 * np.pi / 256) * np.diag([delta - 1j, delta + 1e-3j])
        res = check_bj(a, b, 2, 1)
        assert not res.orthogonal and res.witness is None, delta
        assert 0.9 * delta <= res.min_abs <= delta, delta
        assert res.refuting_norm < 1.0 and norm(a + res.refuting_lambda * b, spec) < 1.0, delta
        eps0 = check_eps_bj(a, b, 2, 1, eps=0.0)
        assert not eps0.satisfied and eps0.attained == res.min_abs, delta
        assert check_eps_bj(a, b, 2, 1, eps=2 * delta).satisfied, delta


def test_tolerances_are_validated_at_the_boundary():
    # a NaN tolerance used to flip verdicts, a negative one to refute with a
    # lambda that raises the norm
    a, e12 = np.diag([3.0, 1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
    sub = MatrixSubspace([e12], field="real")
    cert = subspace_certificate(a, sub, 2, 1)
    calls = [lambda tol: check_bj(a, e12, 2, 1, tol=tol),
             lambda tol: check_eps_bj(a, e12, 2, 1, eps=0.1, tol=tol),
             lambda tol: check_eps_bj(a, e12, 2, 1, eps=0.1, mode="real", tol=tol),
             lambda tol: check_parallel(a, e12, 2, 1, tol=tol),
             lambda tol: subspace_certificate(a, sub, 2, 1, tol=tol),
             lambda tol: verify_certificate(a, sub, 2, 1, cert, tol=tol),
             lambda tol: membership(a, 2, 1, canonical_extreme(descriptor(a, 2, 1)), tol=tol),
             lambda tol: certify_best(a, sub, NormSpec.kyfan(2, 1), np.zeros((2, 2)), cert_tol=tol)]
    for call in calls:
        call(0.0)
        for tol in (float("nan"), -1.0, float("inf"), -0.0 - 1e-300):
            with pytest.raises(InvalidInputError):
                call(tol)


def test_check_bj_knowns():
    assert check_bj(np.diag([1.0, 0.0]), E21, p=2, k=1).orthogonal
    res = check_bj(np.eye(2), np.eye(2), p=2, k=1)
    assert not res.orthogonal
    assert res.refuting_norm < 1.0 - 1e-6
    assert norm(np.eye(2) + res.refuting_lambda * np.eye(2), NormSpec.kyfan(2, 1)) <= res.refuting_norm + 1e-12


def test_check_bj_zero_matrix(rng):
    b = rand_complex(rng, 2, 2)
    assert check_bj(np.zeros((2, 2)), b, p=2, k=1).orthogonal
    # the zero matrix is decided before any descriptor, so p < 2, which has
    # none, still gets the trivial verdict; an invalid p still raises
    assert check_bj(np.zeros((2, 2)), b, p=1.5, k=1).orthogonal
    assert check_eps_bj(np.zeros((2, 2)), b, p=1.5, k=1, eps=0.1).satisfied
    with pytest.raises(InvalidInputError):
        check_bj(np.zeros((2, 2)), b, p=np.inf, k=1)
    with pytest.raises(InvalidInputError):
        check_eps_bj(np.zeros((2, 2)), b, p=np.inf, k=1, eps=0.1)


def test_bj_checks_reject_a_shape_mismatch_at_the_zero_matrix(rng):
    # the shapes are checked before the A = 0 shortcut, as for a nonzero A
    b = rand_complex(rng, 3, 3)
    for a in (np.zeros((2, 2)), np.eye(2)):
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            check_bj(a, b, p=2, k=1)
        for mode in ("complex", "real"):
            with pytest.raises(InvalidInputError, match="shape mismatch"):
                check_eps_bj(a, b, p=2, k=1, eps=0.1, mode=mode)


def test_check_bj_witness(rng):
    # a true verdict carries a subgradient G with tr(G* B) = 0, supported on the
    # top eigenvectors of A*A
    a = np.diag([1.0, 0.0])
    res = check_bj(a, E21, p=2, k=1)
    w = res.witness
    assert w is not None and w.shape == a.shape
    assert membership(a, 2, 1, w)
    assert res.witness_residual <= 1e-14
    ata = a.conj().T @ a
    assert np.linalg.norm(w @ ata - w * 1.0) <= 1e-8


def test_check_bj_witness_on_tied_faces(rng):
    # the orthogonal subgradient lies inside the fantope part of the face
    for t, (a, p, g0) in enumerate(tied_probe(rng, 30)):
        b = orthogonal_to(rng, g0)
        res = check_bj(a, b, p, 2)
        assert res.orthogonal, t
        assert membership(a, p, 2, res.witness), t
        assert res.witness_residual == abs(np.vdot(res.witness, b))
        assert res.witness_residual <= 1e-10 * np.linalg.norm(b), (t, res.witness_residual)


def test_check_bj_matches_lambda_grid(rng):
    # margin-filtered agreement against the brute-force oracle
    checked = 0
    for t in range(14):
        a = rand_complex(rng, 4, 4)
        b = rand_complex(rng, 4, 4)
        for p, k in ((2.0, 1), (3.0, 2), (4.0, 3)):
            spec = NormSpec.kyfan(p, k)
            na = norm(a, spec)
            mn, _ = lambda_min_norm(a, b, spec)
            gap = na - mn
            if 1e-7 * na < gap < 1e-5 * na:
                continue  # tolerance-boundary case, regenerate
            want = gap <= 1e-7 * na
            res = check_bj(a, b, p, k, seed=t)
            assert res.orthogonal == want, (t, p, k, gap)
            if not res.orthogonal:
                assert res.refuting_norm < na, (t, p, k)
                assert res.refuting_norm == norm(a + res.refuting_lambda * b, spec)
            checked += 1
    assert checked >= 30


def test_refutation_matches_golden_section_in_fewer_svds(rng, monkeypatch):
    # the secant on the slope reaches the golden-section minimum along the same
    # ray, on generic, tied (sigma_k = sigma_(k+1)) and rank-deficient A, with
    # fewer SVDs in the whole check_bj call than the 62 of the golden section
    svd, calls = np.linalg.svd, []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    refuted = 0
    for t in range(18):
        kind = ("random", "tied", "rankdef")[t % 3]
        k = 1 + t % 3
        if kind == "random":
            a = rand_complex(rng, 4, 4)
        else:
            sigma = np.sort(rng.uniform(0.3, 3.0, 4))[::-1]
            if kind == "tied":
                sigma[k] = sigma[k - 1]
            else:
                sigma[2:] = 0.0
            a = rand_with_sigma(rng, sigma)
        b = rand_complex(rng, 4, 4)
        for p in (2.0, 3.0, 4.0, 16.0):
            calls.clear()
            res = check_bj(a, b, p, k)
            svds = len(calls)
            if res.orthogonal:
                continue
            spec = NormSpec.kyfan(p, k)
            na = norm(a, spec)
            direction = res.refuting_lambda / abs(res.refuting_lambda)
            _, oracle = golden_min(lambda s: norm(a + s * direction * b, spec),
                                   0.0, 2.0 * na / norm(b, spec))
            assert res.refuting_norm < na, (t, p)
            assert res.refuting_norm <= oracle * (1.0 + 1e-14), (t, p, res.refuting_norm, oracle)
            assert svds < 62, (t, p, svds)
            refuted += 1
    assert refuted >= 60


def test_check_bj_constructed_orthogonal(rng):
    # force tr(G* B) = 0 by projecting a random B against the unique subgradient
    for t in range(10):
        a = rand_complex(rng, 3, 3)
        p, k = 3.0, 1
        g = canonical_extreme(descriptor(a, p, k))
        c = rand_complex(rng, 3, 3)
        b = c - (np.trace(g.conj().T @ c) / np.sum(np.abs(g) ** 2)) * g
        assert abs(np.trace(g.conj().T @ b)) <= 1e-10
        res = check_bj(a, b, p, k, seed=t)
        assert res.orthogonal, t
        spec = NormSpec.kyfan(p, k)
        mn, _ = lambda_min_norm(a, b, spec)
        assert mn >= norm(a, spec) - 1e-7


def test_check_bj_and_dir_derivative_scale_free():
    # distinct singular values must stay distinct blocks at every scale
    a = np.diag([3.0, 2.0, 1.0]).astype(complex)
    b = rand_complex(np.random.default_rng(5), 3, 3)
    want_orth = check_bj(a, b, 2, 2).orthogonal
    want_d = dir_derivative(a, b, 2, 2)
    for s in [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12]:
        assert check_bj(s * a, b, 2, 2).orthogonal == want_orth, s
        assert abs(dir_derivative(s * a, b, 2, 2) - want_d) <= 1e-10 * abs(want_d), s


def test_eps_bj_knowns():
    res = check_eps_bj(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]), p=2, k=1, eps=0.6)
    assert not res.satisfied
    assert abs(res.attained - 1.0) <= 1e-9
    assert abs(res.threshold - 0.6) <= 1e-12
    for eps in (0.0, 0.3, 0.9):
        assert check_eps_bj(np.diag([1.0, 0.0]), E21, p=2, k=1, eps=eps).satisfied


def test_eps_bj_zero_reduces_to_bj(rng):
    for t in range(100):
        a = rand_complex(rng, 3, 3)
        b = rand_complex(rng, 3, 3)
        p, k = float(rng.choice([2.0, 3.0, 4.0])), int(rng.integers(1, 4))
        bj = check_bj(a, b, p, k, seed=t).orthogonal
        eps0 = check_eps_bj(a, b, p, k, eps=0.0, seed=t).satisfied
        assert bj == eps0, (t, p, k)


def test_eps_bj_monotone_in_eps(rng):
    grid = np.arange(0.0, 0.95, 0.1)
    for t in range(20):
        a = rand_complex(rng, 3, 3)
        b = rand_complex(rng, 3, 3)
        mode = "complex" if t % 2 == 0 else "real"
        verdicts = [check_eps_bj(a, b, 2, 2, eps=float(e), mode=mode, seed=t).satisfied
                    for e in grid]
        # once satisfied, stays satisfied
        assert all(not (verdicts[i] and not verdicts[i + 1]) for i in range(len(grid) - 1))


def test_eps_bj_real_mode_interval():
    # real interval [-1,1] contains 0: satisfied at eps = 0 in real mode
    res = check_eps_bj(np.eye(2), np.diag([1.0, -1.0]), p=2, k=1, eps=0.0, mode="real")
    assert res.satisfied and res.attained <= 1e-9


def test_eps_bj_validation():
    with pytest.raises(InvalidInputError):
        check_eps_bj(np.eye(2), np.eye(2), 2, 1, eps=1.0)
    with pytest.raises(InvalidInputError):
        check_eps_bj(np.eye(2), np.eye(2), 2, 1, eps=-0.1)
    with pytest.raises(InvalidInputError):
        check_eps_bj(np.eye(2), np.eye(2), 2, 1, eps=0.5, mode="quaternion")


def test_parallel_self():
    a = np.diag([2.0, 1.0])
    res = check_parallel(a, a, p=2, k=1)
    assert res.parallel and abs(res.lam - 1.0) <= 1e-9
    assert res.additivity_gap <= 1e-10


def test_parallel_disjoint_supports():
    res = check_parallel(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), p=2, k=1)
    assert res.parallel is False
    assert res.max_abs <= 1e-12 and abs(res.threshold - 1.0) <= 1e-12


def test_parallel_scalar_multiple(rng):
    for t in range(8):
        a = rand_complex(rng, 3, 3)
        c = complex(rng.standard_normal(), rng.standard_normal())
        res = check_parallel(a, c * a, p=2, k=2, seed=t)
        assert res.parallel
        spec = NormSpec.kyfan(2, 2)
        gap = abs(norm(a + res.lam * c * a, spec) - norm(a, spec) - norm(c * a, spec))
        assert gap <= 1e-10 * (1 + norm(a, spec)), t
        assert abs(res.lam - np.conj(c) / abs(c)) <= 1e-8


def test_parallel_symmetric(rng):
    for t in range(6):
        a = rand_complex(rng, 3, 3)
        b = rand_complex(rng, 3, 3) if t % 2 else (1.3 - 0.7j) * a
        r1 = check_parallel(a, b, 2, 1, seed=t)
        r2 = check_parallel(b, a, 2, 1, seed=t)
        if r1.parallel is not None and r2.parallel is not None:
            assert r1.parallel == r2.parallel, t


def test_parallel_rank_deficient_undefined():
    res = check_parallel(np.diag([1.0, 0.0]), np.eye(2), p=2, k=2)
    assert res.parallel is None and res.rank_deficient


def test_parallel_validation():
    for p in (2, 1.5):
        with pytest.raises(InvalidInputError):
            check_parallel(np.zeros((2, 2)), np.eye(2), p, 1)


# --- subspace certificates ---------------------------------------------------


def test_certificate_hand_example():
    a = np.diag([0.5, 1.0, -1.0])
    sub = MatrixSubspace([np.diag([0.0, 1.0, 1.0])], field="complex")
    cert = subspace_certificate(a, sub, p=2, k=1)
    assert cert.feasible
    assert len(cert.T_list) == 1
    assert np.max(np.abs(cert.T_list[0] - np.diag([0.0, 0.5, 0.5]))) <= 1e-6
    assert cert.residual_perp <= 1e-8
    ok, report = verify_certificate(a, sub, 2, 1, cert)
    assert ok, report
    assert report["residual_eig"] <= 1e-8
    assert report["residual_perp"] <= 1e-8
    assert report["dual_norm_bound"] <= 1.0 + 1e-8
    assert sampled_direction_gap(a, sub, 2, 1) >= -1e-9


def test_subspace_certificate_makes_one_svd_and_no_report(rng, monkeypatch):
    # the descriptor's SVD and the face search are all of it: the PSD, trace,
    # eigenspace and dual-norm checks are verify_certificate's
    import kyfan.ortho as ortho
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for a, p, k in [(np.diag([0.5, 1.0, -1.0]), 2, 1), (rand_complex(rng, 3, 4), 3, 2),
                    (np.diag([2.0, 1.0, 1.0, 0.5]), 2, 2)]:
        g = canonical_extreme(descriptor(a, p, k))
        for field in ("real", "complex"):
            sub = MatrixSubspace([orthogonal_to(rng, g)], field=field)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
                m.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
                m.setattr(ortho, "dual_norm", counting("dual_norm", ortho.dual_norm))
                counts.clear()
                cert = subspace_certificate(a, sub, p, k)
            assert cert.feasible and counts == {"svd": 1}, (a.shape, p, k, field, counts)


def test_certificate_zero_subspace(rng):
    a = rand_complex(rng, 3, 3)
    sub = MatrixSubspace([], field="complex", shape=(3, 3))
    cert = subspace_certificate(a, sub, p=2, k=2)
    assert cert.feasible and cert.residual_perp == 0.0
    ok, _ = verify_certificate(a, sub, 2, 2, cert)
    assert ok


def test_verify_certificate_is_the_conjunction_of_the_proof_checks(rng):
    # ok is exactly the checks of the Hoelder bound; sampled directions in the
    # subspace never drop the norm of a verified a, while random subspaces
    # (unverified) sample a negative gap
    verified, unverified_gaps = 0, []
    for field in ("real", "complex"):
        for dim in (0, 1, 2):
            for orthogonal in (True, False):
                a = rand_complex(rng, 3, 4)
                p, k = (2.0, 1) if dim % 2 else (3.0, 2)
                g = canonical_extreme(descriptor(a, p, k))
                basis = [orthogonal_to(rng, g) if orthogonal else rand_complex(rng, 3, 4)
                         for _ in range(dim)]
                sub = MatrixSubspace(basis, field=field, shape=(3, 4))
                cert = subspace_certificate(a, sub, p, k)
                ok, report = verify_certificate(a, sub, p, k, cert)
                na = norm(a, NormSpec.kyfan(p, k))
                assert ok == (report["psd_ok"] and report["trace_ok"]
                              and report["residual_eig"] <= 1e-8 and report["residual_perp"] <= 1e-8
                              and report["dual_norm_bound"] <= 1.0 + 1e-8
                              and report["pairing"] >= na - 1e-8 * max(1.0, na))
                gap = sampled_direction_gap(a, sub, p, k, samples=20, seed=dim)
                if ok:
                    verified += 1
                    assert gap >= -1e-9 * max(1.0, na), (field, dim, orthogonal)
                else:
                    unverified_gaps.append(gap)
    assert verified >= 8 and min(unverified_gaps) < 0.0


def test_verify_certificate_checks_the_pairing():
    # T_1 on sigma_2's eigenvector at a loose tol: every other check passes and
    # G = diag(0, 0.64) is orthogonal to E11, yet ||a - E11|| = 0.8 < ||a|| = 1
    a = np.diag([1.0, 0.8])
    sub = MatrixSubspace([np.diag([1.0, 0.0])])
    cert = subspace_certificate(a, sub, p=3, k=1)
    wrong = type(cert)(**{**cert.__dict__})
    wrong.T_list = [np.diag([0.0, 1.0]).astype(complex)]
    ok, report = verify_certificate(a, sub, 3, 1, wrong, tol=0.4)
    assert not ok and abs(report["pairing"] - 0.8 ** 3) <= 1e-12
    assert report["psd_ok"] and report["trace_ok"] and report["residual_eig"] <= 0.4
    assert report["residual_perp"] <= 1e-15 and report["dual_norm_bound"] <= 1.0


def test_verify_certificate_rejects_a_malformed_t_list():
    a = np.diag([0.5, 1.0, -1.0])
    sub = MatrixSubspace([np.diag([0.0, 1.0, 1.0])])
    cert = subspace_certificate(a, sub, p=2, k=1)
    for t_list in ([], cert.T_list * 2, [np.eye(2)], [np.ones(3)]):
        bad = type(cert)(**{**cert.__dict__})
        bad.T_list = t_list
        with pytest.raises(InvalidInputError):
            verify_certificate(a, sub, 2, 1, bad)
    with pytest.raises(InvalidInputError):
        verify_certificate(np.zeros((3, 3)), sub, 2, 1, cert)


def test_certificate_infeasible_member():
    # A lies in the subspace: ||A - A|| = 0 < ||A||, certainly not orthogonal
    sub = MatrixSubspace([np.eye(2)], field="complex")
    cert = subspace_certificate(np.eye(2), sub, p=2, k=1, max_iter=400)
    assert not cert.feasible


def test_certificate_agrees_with_check_bj(rng):
    agree = 0
    for t in range(8):
        a = rand_complex(rng, 3, 3)
        if t % 2 == 0:
            g = canonical_extreme(descriptor(a, 2, 1))
            c = rand_complex(rng, 3, 3)
            b = c - (np.trace(g.conj().T @ c) / np.sum(np.abs(g) ** 2)) * g
        else:
            b = rand_complex(rng, 3, 3)
        bj = check_bj(a, b, 2, 1, seed=t)
        if bj.min_abs > 1e-10 and bj.min_abs < 1e-5:
            continue  # borderline
        sub = MatrixSubspace([b], field="complex")
        cert = subspace_certificate(a, sub, 2, 1, max_iter=2000)
        assert cert.feasible == bj.orthogonal, t
        agree += 1
    assert agree >= 5


def test_certificate_respects_the_fantope():
    # sigma_1 = sigma_2 fill k = 2, so the face is the one G = diag(1, 1, 0)/sqrt(2):
    # T_1 + T_2 must be the projector on the tied block, not 2 e2 e2*.  Indeed
    # ||A - diag(1, 0, 0)|| = 1.118 < ||A|| = 1.414.
    a = np.diag([1.0, 1.0, 0.5])
    e = np.diag([1.0, 0.0, 0.0])
    sub = MatrixSubspace([e], field="complex")
    cert = subspace_certificate(a, sub, p=2, k=2)
    assert not cert.feasible
    assert verify_certificate(a, sub, 2, 2, cert)[1]["dual_norm_bound"] <= 1.0 + 1e-12
    assert cert.residual_lower > 1e-9  # no certificate exists
    assert not check_bj(a, e, 2, 2).orthogonal


def test_certificate_agrees_with_check_bj_on_tied_faces(rng):
    for t, (a, p, g0) in enumerate(tied_probe(rng, 20)):
        b = orthogonal_to(rng, g0) if t % 2 == 0 else rand_complex(rng, *a.shape)
        bj = check_bj(a, b, p, 2)
        cert = subspace_certificate(a, MatrixSubspace([b]), p, 2, max_iter=1000)
        assert cert.feasible == bj.orthogonal, t
        if not cert.feasible:
            assert cert.residual_lower > 1e-9, t
        basis = [orthogonal_to(rng, g0) for _ in range(2)]
        sub = MatrixSubspace(basis)
        cert = subspace_certificate(a, sub, p, 2, max_iter=1000)
        assert cert.feasible and verify_certificate(a, sub, p, 2, cert, seed=t)[0], t
        for e in basis + [basis[0] - 2j * basis[1]]:
            assert check_bj(a, e, p, 2).orthogonal, t


def test_verdicts_survive_the_symmetries(rng):
    # unitary factors, A -> cA, B -> cB, transposition and conjugation leave
    # the BJ and eps-BJ verdicts, the witness residual (scaled with B) and the
    # subspace verdict unchanged
    for t, (a, p, g0) in enumerate(tied_probe(rng, 6)):
        n = a.shape[0]
        u, v = (np.linalg.qr(rand_complex(rng, n, n))[0] for _ in range(2))
        if t % 2 == 0:
            b, basis = orthogonal_to(rng, g0), [orthogonal_to(rng, g0) for _ in range(2)]
        else:
            b, basis = rand_complex(rng, n, n), [rand_complex(rng, n, n) for _ in range(2)]
        want = check_bj(a, b, p, 2)
        want_cert = subspace_certificate(a, MatrixSubspace(basis), p, 2).feasible
        for f in (lambda x: x, lambda x: u @ x @ v, np.transpose, np.conj):
            for c in (1e-8, 1.0, 1e8):
                res = check_bj(c * f(a), f(b), p, 2)
                assert res.orthogonal == want.orthogonal, (t, c)
                if want.orthogonal:
                    gap = abs(res.witness_residual - want.witness_residual)
                    assert gap <= 1e-10 * np.linalg.norm(b), (t, c)
                sub = MatrixSubspace([f(e) for e in basis])
                assert subspace_certificate(c * f(a), sub, p, 2).feasible == want_cert, (t, c)
                res = check_bj(f(a), c * f(b), p, 2)
                assert res.orthogonal == want.orthogonal, (t, "cB", c)
                if want.orthogonal:
                    gap = abs(res.witness_residual - c * want.witness_residual)
                    assert gap <= 1e-10 * c * np.linalg.norm(b), (t, "cB", c)
                eps0 = check_eps_bj(f(a), c * f(b), p, 2, eps=0.0)
                assert eps0.satisfied == want.orthogonal, (t, "cB", c)


def test_verify_rejects_tampered_certificates():
    a = np.diag([0.5, 1.0, -1.0])
    sub = MatrixSubspace([np.diag([0.0, 1.0, 1.0])], field="complex")
    cert = subspace_certificate(a, sub, p=2, k=1)

    scaled = type(cert)(**{**cert.__dict__})
    scaled.T_list = [0.9 * t for t in cert.T_list]
    ok, report = verify_certificate(a, sub, 2, 1, scaled)
    assert not ok and not report["trace_ok"]

    wrong_space = type(cert)(**{**cert.__dict__})
    wrong_space.T_list = [np.diag([1.0, 0.0, 0.0]).astype(complex)]
    ok, report = verify_certificate(a, sub, 2, 1, wrong_space)
    assert not ok and report["residual_eig"] > 1e-3


def test_certificate_requires_nonzero_a():
    sub = MatrixSubspace([np.eye(2)], field="complex")
    with pytest.raises(InvalidInputError):
        subspace_certificate(np.zeros((2, 2)), sub, 2, 1)
    with pytest.raises(InvalidInputError):
        subspace_certificate(np.eye(2), [np.eye(2)], 2, 1)


def test_certificates_reject_a_subspace_of_another_shape():
    sub3 = MatrixSubspace([np.eye(3)])
    cert = subspace_certificate(np.diag([1.0, 2.0, 3.0]), sub3, 2, 1)
    for a in (np.eye(2), np.zeros((2, 2)), np.eye(3, 4)):
        with pytest.raises(InvalidInputError, match="does not match"):
            subspace_certificate(a, sub3, 2, 1)
        with pytest.raises(InvalidInputError, match="does not match"):
            verify_certificate(a, sub3, 2, 1, cert)
