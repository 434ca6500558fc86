"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v`; the ACCEPTANCE lines are printed
outside capture so they appear in plain runs too.  Whole file targets well under
ten minutes on one core at desk scale (matrices <= 8x8, subspace dim <= 4).
"""

import time

import numpy as np
import pytest

from kyfan.core import MatrixSubspace
from kyfan.norms import NormSpec, dual_norm, norm, norm_of_sigma
from kyfan.subdiff import descriptor, dir_derivative, sample_extreme
from kyfan.ortho import check_bj, check_eps_bj, subspace_certificate, verify_certificate
from kyfan.approx import (
    best_approx,
    pk_singular_value_check,
    strict_spectral,
    unique_1d_probe,
)
from kyfan.lab import (
    SweepRecord,
    convergence_checks,
    counterexample_run,
    default_p_grid,
    p_sweep,
)

from conftest import fd_derivative, lambda_min_norm, rand_complex, rand_with_sigma
from helpers import sampled_direction_gap


@pytest.fixture
def report(capfd):
    def _report(num, ok, detail):
        with capfd.disabled():
            print("ACCEPTANCE %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail),
                  flush=True)
    return _report


@pytest.fixture(scope="module")
def cheb():
    # A = diag(3,1,0), M = span{I}: the worked convergence example
    a = np.diag([3.0, 1.0, 0.0]).astype(complex)
    sub = MatrixSubspace([np.eye(3)], field="complex")
    st = strict_spectral(a, sub, starts=10, seed=0)
    recs = p_sweep(a, sub, default_p_grid(256.0), strict=st, starts=8)
    return a, sub, st, recs


def test_criterion_1_counterexample_reproduction(report):
    t0 = time.monotonic()
    rep = counterexample_run(p_list=(2.0, 4.0, 8.0, 16.0))
    elapsed = time.monotonic() - t0

    sig_dev = float(np.max(np.abs(rep.strict.sigma - np.array([1.0, 1.0, 0.5]))))
    spreads = [probe.spread for _, probe in rep.uniqueness]
    chain_ok = all(e.sigma3_conclusion for e in rep.chain)
    ok = (sig_dev <= 1e-6 and max(spreads) <= 1e-6 and chain_ok
          and rep.hypothetical_excluded and not rep.flags and elapsed <= 30.0)
    report(1, ok, "strict sigma dev %.1e, max uniqueness spread %.1e, "
           "sigma3 chain %s, %.1fs" % (sig_dev, max(spreads), chain_ok, elapsed))

    assert sig_dev <= 1e-6
    assert max(spreads) <= 1e-6
    assert all(probe.unique_predicted and not probe.violation
               for _, probe in rep.uniqueness)
    assert chain_ok and rep.hypothetical_excluded and not rep.flags
    assert elapsed <= 30.0


def test_criterion_2_subdifferential_extreme_points(report):
    rng = np.random.default_rng(2024)
    ps = [2.0, 2.5, 3.0, 4.0]
    worst_gauge, worst_pair, checked = 0.0, 0.0, 0
    sub_ok = True
    for i in range(500):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        n0 = min(m, n)
        p = ps[i % 4]
        k = 1 + i % n0
        if i % 4 == 3:
            # force a singular value tie straddling (or inside) the top-k block
            sig = np.sort(rng.uniform(0.2, 3.0, size=n0))[::-1]
            j = k if k < n0 else k - 1
            sig[j] = sig[j - 1]
            a = rand_with_sigma(rng, sig, m, n)
        else:
            a = rand_complex(rng, m, n)
        spec = NormSpec.kyfan(p, k)
        na = norm(a, spec)
        q = p / (p - 1.0)
        desc = descriptor(a, p, k)
        for g in sample_extreme(desc, seed=i, count=2):
            worst_gauge = max(worst_gauge, abs(norm(g, NormSpec.schatten(q)) - 1.0))
            pair = float(np.real(np.trace(g.conj().T @ a)))
            worst_pair = max(worst_pair, abs(pair - na) / max(na, 1e-12))
            checked += 1
        g = sample_extreme(desc, seed=i + 1)
        for _ in range(20):
            x = rand_complex(rng, m, n)
            lhs = norm(a + x, spec)
            rhs = na + float(np.real(np.trace(g.conj().T @ x)))
            if lhs < rhs - 1e-9 * (1.0 + lhs):
                sub_ok = False

    ok = worst_gauge <= 1e-9 and worst_pair <= 1e-9 and sub_ok
    report(2, ok, "%d extreme points: max |gauge-1| %.1e, max pairing dev %.1e, "
           "subgradient inequality %s on 500x20 directions"
           % (checked, worst_gauge, worst_pair, sub_ok))
    assert worst_gauge <= 1e-9
    assert worst_pair <= 1e-9
    assert sub_ok


def test_criterion_3_directional_derivative_fd(report):
    rng = np.random.default_rng(303)
    ps = [2.0, 2.5, 3.0, 4.0]
    worst, degenerate = 0.0, 0
    for i in range(500):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(3, 7))
        n0 = min(m, n)
        p = ps[i % 4]
        if i < 50:
            k = 1 + i % (n0 - 1)
            sig = np.sort(rng.uniform(0.3, 3.0, size=n0))[::-1]
            sig[k] = sig[k - 1]  # sigma_k == sigma_{k+1}
            a = rand_with_sigma(rng, sig, m, n)
            degenerate += 1
        else:
            k = 1 + i % n0
            a = rand_complex(rng, m, n)
        x = rand_complex(rng, m, n)
        d = dir_derivative(a, x, p, k)
        fd = fd_derivative(a, x, NormSpec.kyfan(p, k))
        worst = max(worst, abs(d - fd) / (1.0 + float(np.linalg.norm(x))))

    ok = worst <= 1e-4
    report(3, ok, "500 pairs (%d degenerate): max |dirderiv - fd| / (1+||X||_F) "
           "= %.1e vs 1e-4" % (degenerate, worst))
    assert worst <= 1e-4


def test_criterion_4_orthogonality_oracle(report):
    rng = np.random.default_rng(404)
    pairs = [(rand_complex(rng, 4, 4), rand_complex(rng, 4, 4)) for _ in range(50)]
    disagree, checked, skipped = 0, 0, 0
    eps0_ok = True
    for a, b in pairs:
        for p in (2.0, 3.0, 4.0):
            for k in (1, 2, 3):
                spec = NormSpec.kyfan(p, k)
                na = norm(a, spec)
                res = check_bj(a, b, p, k)
                e0 = check_eps_bj(a, b, p, k, 0.0)
                if e0.satisfied != res.orthogonal:
                    eps0_ok = False
                best, _ = lambda_min_norm(a, b, spec)
                gap = na - best
                if 1e-7 * na < gap < 1e-5 * na:
                    skipped += 1  # inside the grid oracle's resolution band
                    continue
                checked += 1
                if res.orthogonal != (gap <= 1e-7 * na):
                    disagree += 1
    mono_ok = True
    grid = [0.1 * j for j in range(10)]
    for a, b in pairs:
        for p, k in ((2.0, 2), (3.0, 1)):
            verdicts = [check_eps_bj(a, b, p, k, e).satisfied for e in grid]
            if any(verdicts[j] and not verdicts[j + 1] for j in range(9)):
                mono_ok = False

    ok = disagree == 0 and checked >= 300 and eps0_ok and mono_ok
    report(4, ok, "%d/450 decided combos, %d skipped at margin, %d disagreements; "
           "eps=0 coincides %s; eps-monotone %s"
           % (checked, skipped, disagree, eps0_ok, mono_ok))
    assert disagree == 0
    assert checked >= 300
    assert eps0_ok and mono_ok


def test_criterion_5_subspace_certificates(report):
    rng = np.random.default_rng(777)
    worst_perp, worst_eig, worst_dual, worst_gap = 0.0, 0.0, 0.0, 0.0
    all_ok = True
    for i in range(30):
        a = rand_complex(rng, 4, 4)
        d = 1 + i % 2
        basis = [rand_complex(rng, 4, 4) for _ in range(d)]
        sub = MatrixSubspace(basis, field="complex")
        p = [2.0, 2.5, 3.0][i % 3]
        k = 1 + i % 2
        spec = NormSpec.kyfan(p, k)
        y = best_approx(a, sub, spec, starts=8, seed=i)
        a2 = a - y.y
        # target 5e-8: inside the 1e-7 budget, above the solver's ~1e-8 gap
        cert = subspace_certificate(a2, sub, p, k, tol=5e-8)
        vok, rep = verify_certificate(a2, sub, p, k, cert, tol=1e-7)
        worst_perp = max(worst_perp, rep["residual_perp"])
        worst_eig = max(worst_eig, rep["residual_eig"])
        worst_dual = max(worst_dual, rep["dual_norm_bound"] - 1.0)
        worst_gap = min(worst_gap, sampled_direction_gap(a2, sub, p, k, samples=20, seed=i))
        if not (cert.feasible and vok):
            all_ok = False

    ok = (all_ok and worst_perp <= 1e-7 and worst_eig <= 1e-7
          and worst_dual <= 1e-8 and worst_gap >= -1e-9 * 10.0)
    report(5, ok, "30 shifted instances: max residual_perp %.1e, residual_eig %.1e, "
           "dual excess %.1e, min direction gap %.1e"
           % (worst_perp, worst_eig, worst_dual, worst_gap))
    assert all_ok
    assert worst_perp <= 1e-7 and worst_eig <= 1e-7
    assert worst_dual <= 1e-8
    assert worst_gap >= -1e-9 * 10.0  # no sampled ||A'+B|| < ||A'|| - 1e-9


def test_criterion_6_uniqueness_theorem(report):
    rng = np.random.default_rng(606)
    worst_spread = 0.0
    predicted_ok = True
    for i in range(30):
        n = 3 + i % 2
        k = 1 + i % 2
        p = [2.0, 3.0][i % 2]
        a = rand_complex(rng, n, n)
        x = rand_complex(rng, n, n)  # full rank a.s. => rank > n - k
        probe = unique_1d_probe(a, x, p, k, trials=10, seed=i)
        if not probe.unique_predicted or probe.violation:
            predicted_ok = False
        worst_spread = max(worst_spread, probe.spread)
    min_counter_spread = np.inf
    for i in range(10):
        n = 3 + i % 3
        s1 = rng.uniform(1.5, 3.0)
        b = rng.uniform(0.5, 1.0)
        qu, _ = np.linalg.qr(rand_complex(rng, n, n))
        qv, _ = np.linalg.qr(rand_complex(rng, n, n))
        sig = np.array([s1] + [b] * (n - 1))
        a = (qu * sig) @ qv.conj().T
        x = np.outer(qu[:, 0], qv[:, 0].conj())  # rank 1 <= n - 1: no prediction
        probe = unique_1d_probe(a, x, 2.0, 1, trials=10, seed=100 + i)
        if probe.unique_predicted:
            predicted_ok = False
        min_counter_spread = min(min_counter_spread, probe.spread)

    ok = predicted_ok and worst_spread <= 1e-5 and min_counter_spread > 0.1
    report(6, ok, "30 full-rank probes: max spread %.1e vs 1e-5; 10 rank-deficient: "
           "min spread %.2f > 0.1" % (worst_spread, min_counter_spread))
    assert predicted_ok
    assert worst_spread <= 1e-5
    assert min_counter_spread > 0.1


def test_criterion_7_convergence_propositions(report, cheb):
    _, _, st, recs = cheb
    alphas = {r.p: float(np.real(r.coefficients[0])) / np.sqrt(3.0) for r in recs}
    a2_dev = abs(alphas[2.0] - 4.0 / 3.0)
    a256_dev = abs(alphas[256.0] - 1.5)
    chain_ok = True
    s_inf = st.sigma
    for r in recs:
        spec = NormSpec.schatten(r.p)
        lhs = float(s_inf[0])
        chain_ok &= lhs <= r.value_inf + 1e-8
        chain_ok &= r.value_inf <= r.value_p + 1e-12
        chain_ok &= r.value_p <= norm_of_sigma(s_inf, spec) + 1e-8
        chain_ok &= norm_of_sigma(s_inf, spec) <= 3.0 ** (1.0 / r.p) * lhs + 1e-8
    rng = np.random.default_rng(909)
    worst_dist = 0.0
    for i in range(10):
        a = rand_complex(rng, 2, 2)
        sub = MatrixSubspace([rand_complex(rng, 2, 2)], field="complex")
        st2 = strict_spectral(a, sub, starts=8, seed=i)
        swp = p_sweep(a, sub, [2.0, 8.0, 64.0, 512.0], strict=st2, starts=8)
        worst_dist = max(worst_dist, swp[-1].dist_to_strict)

    ok = a2_dev <= 1e-6 and a256_dev <= 0.02 and chain_ok and worst_dist <= 0.02
    report(7, ok, "alpha_2 dev %.1e, |alpha_256 - 1.5| = %.1e, norm chain %s; "
           "10 random 2x2: max distToStrict(512) %.1e vs 0.02"
           % (a2_dev, a256_dev, chain_ok, worst_dist))
    assert a2_dev <= 1e-6
    assert a256_dev <= 0.02
    assert chain_ok
    assert worst_dist <= 0.02


def test_criterion_8_residual_singular_values(report):
    rng = np.random.default_rng(808)
    devs = []
    attempts = 0
    while len(devs) < 20 and attempts < 80:
        attempts += 1
        sig = np.sort(rng.uniform(0.2, 2.5, size=3))[::-1]
        sig[0] += 1.5
        a = rand_with_sigma(rng, sig, 3, 3)
        basis = [0.4 * rand_complex(rng, 3, 3) for _ in range(2)]
        sub = MatrixSubspace(basis, field="complex")
        p = [2.0, 3.0][attempts % 2]
        k = 1 + attempts % 2
        rep = pk_singular_value_check(a, sub, p, k, gap_tol=0.1, seed=attempts, starts=6)
        if not rep.applicable:
            continue  # residual gap sigma_k - sigma_{k+1} <= 0.1: not in scope
        devs.append(rep.max_deviation)
        assert rep.passed

    worst = max(devs)
    ok = len(devs) == 20 and worst <= 1e-6
    report(8, ok, "%d gap>0.1 instances x 10 seeds: max sigma_1..sigma_k deviation "
           "%.1e vs 1e-6" % (len(devs), worst))
    assert len(devs) == 20
    assert worst <= 1e-6


def test_criterion_9_harness_never_overclaims(report, cheb):
    _, _, st, recs = cheb
    tight = convergence_checks(recs, st, tol=1e-12)
    tight_ok = (not tight.all_converged
                and all(c.verdict == "Inconclusive" for c in tight.checks))
    drift = [SweepRecord(p=r.p, coefficients=r.coefficients,
                         sigma=st.sigma + 0.1 * (i + 1.0),
                         value_p=r.value_p, value_inf=float(st.sigma[0]) + 0.1 * (i + 1.0),
                         dist_to_strict=r.dist_to_strict, flags=[])
             for i, r in enumerate(recs)]
    div = convergence_checks(drift, st, tol=1e-12)
    div_ok = (not div.all_converged
              and all(c.verdict != "ConvergesWithinTol" for c in div.checks)
              and any(c.verdict == "Diverging" for c in div.checks))

    ok = tight_ok and div_ok
    report(9, ok, "unmet tol 1e-12 -> all Inconclusive (%s); drifting spectra -> "
           "Diverging, never ConvergesWithinTol (%s)" % (tight_ok, div_ok))
    assert tight_ok
    assert div_ok
