import csv
import os

import numpy as np
import pytest

import kyfan.lab
from kyfan.approx import best_approx, strict_spectral
from kyfan.core import MatrixSubspace
from kyfan.errors import InvalidInputError, IoError
from kyfan.lab import (
    SweepRecord,
    convergence_checks,
    counterexample_instance,
    counterexample_run,
    default_p_grid,
    emit_csv,
    p_sweep,
)
from kyfan.norms import NormSpec, norm_of_sigma
from kyfan.solvers import GAP_TOL


def test_default_p_grid():
    assert default_p_grid() == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
    assert default_p_grid(16.0) == [2.0, 4.0, 8.0, 16.0]
    for p_max in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidInputError):
            default_p_grid(p_max)  # p *= 2 never passes an infinite p_max


@pytest.fixture(scope="module")
def cheb_sweep():
    a = np.diag([3.0, 1.0, 0.0]).astype(complex)
    sub = MatrixSubspace([np.eye(3)], field="complex")
    st = strict_spectral(a, sub, starts=10, seed=0)
    recs = p_sweep(a, sub, p_grid=default_p_grid(256.0), strict=st, starts=8, seed=0)
    return a, sub, st, recs


def test_sweep_chebyshev_coefficients(cheb_sweep):
    _, sub, st, recs = cheb_sweep
    alphas = [float((r.coefficients[0] / np.sqrt(3.0)).real) for r in recs]
    assert abs(alphas[0] - 4.0 / 3.0) <= 1e-6
    assert abs(alphas[-1] - 1.5) <= 0.02
    # monotone approach to the strict coefficient 1.5
    assert all(alphas[i] <= alphas[i + 1] + 1e-6 for i in range(len(alphas) - 1))
    assert not any(r.flags for r in recs)


def test_sweep_norm_chain(cheb_sweep):
    # ||R_inf||_inf <= sigma_1(R_p) <= ||R_p||_p <= ||R_inf||_p <= n0^(1/p)||R_inf||_inf
    _, _, st, recs = cheb_sweep
    s_inf = st.sigma
    for r in recs:
        spec = NormSpec.schatten(r.p)
        lhs = float(s_inf[0])
        assert lhs <= r.value_inf + 1e-8, r.p
        assert r.value_inf <= r.value_p + 1e-12, r.p
        assert r.value_p <= norm_of_sigma(s_inf, spec) + 1e-8, r.p
        assert norm_of_sigma(s_inf, spec) <= 3.0 ** (1.0 / r.p) * lhs + 1e-8, r.p


def test_sweep_dist_monotone_when_converged(cheb_sweep):
    _, _, st, recs = cheb_sweep
    rep = convergence_checks(recs, st)
    assert rep.all_converged
    dists = [r.dist_to_strict for r in recs]
    tail = dists[len(dists) // 2:]
    # non-increasing up to solver jitter at the 1e-8 plateau
    assert all(a >= b - 1e-6 for a, b in zip(tail, tail[1:])), tail


def test_sweep_convergence_report(cheb_sweep):
    _, _, st, recs = cheb_sweep
    rep = convergence_checks(recs, st)
    assert rep.s1 == 2 and not rep.second_block_checked
    assert [c.index for c in rep.checks] == [1, 2]
    assert all(c.verdict == "ConvergesWithinTol" for c in rep.checks)
    assert all(c.gap <= 0.02 for c in rep.checks)


def test_sweep_counterexample_symmetry():
    a, x = counterexample_instance()
    sub = MatrixSubspace([x], field="complex")
    st = strict_spectral(a, sub, starts=10, seed=0)
    recs = p_sweep(a, sub, p_grid=[2.0, 4.0, 8.0], strict=st, starts=8, seed=0)
    for r in recs:
        alpha = complex(r.coefficients[0] * np.sqrt(0.5))
        assert abs(alpha - 1.0) <= 1e-7, r.p
        assert r.dist_to_strict <= 1e-8, r.p


def test_sweep_member_instance_all_zero():
    x = np.diag([0.0, 1.0, 1.0]).astype(complex)
    sub = MatrixSubspace([x], field="complex")
    a = (0.3 + 0.4j) * x
    st = strict_spectral(a, sub, starts=6, seed=0)
    recs = p_sweep(a, sub, p_grid=[2.0, 4.0], strict=st, starts=6, seed=0)
    for r in recs:
        assert r.value_p <= 1e-8
        assert r.dist_to_strict <= 1e-7
        assert np.max(r.sigma) <= 1e-8


def sweep_instances():
    """(a, subspace) of the sweeps above: Chebyshev, counterexample, second block."""
    ce_a, ce_x = counterexample_instance()
    return [
        (np.diag([3.0, 1.0, 0.0]).astype(complex),
         MatrixSubspace([np.eye(3)], field="complex")),
        (ce_a, MatrixSubspace([ce_x], field="complex")),
        (np.diag([3.0, 1.0, 0.0]).astype(complex),
         MatrixSubspace([np.diag([0.0, 1.0, 0.0])], field="complex")),
    ]


def test_sweep_makes_one_solve_per_p(monkeypatch):
    a, sub = sweep_instances()[1]
    st = strict_spectral(a, sub, starts=6, seed=0)
    calls = []
    monkeypatch.setattr(kyfan.lab, "best_approx",
                        lambda *args, **kw: calls.append(kw) or best_approx(*args, **kw))
    recs = p_sweep(a, sub, p_grid=[2.0, 4.0, 8.0], strict=st, starts=6, seed=0)
    assert len(calls) == len(recs) == 3
    # warm-started from the strict approximant, then from the previous p as well
    assert [len(kw["extra_coeffs"]) for kw in calls] == [1, 2, 2]


@pytest.mark.parametrize("case", range(3))
def test_sweep_values_match_cold_solves(case):
    a, sub = sweep_instances()[case]
    st = strict_spectral(a, sub, starts=6, seed=0)
    grid = [2.0, 4.0, 8.0, 16.0]
    recs = p_sweep(a, sub, p_grid=grid, strict=st, starts=6, seed=0)
    for i, r in enumerate(recs):
        assert not r.flags, r.p
        # both values are closed brackets: each lies within GAP_TOL (1 + f) of the optimum
        cold = best_approx(a, sub, NormSpec.schatten(r.p), starts=8, seed=100 + i)
        assert cold.converged, r.p
        assert abs(r.value_p - cold.value) <= GAP_TOL * (1.0 + cold.value), r.p


def test_sweep_grid_validation():
    a, x = counterexample_instance()
    sub = MatrixSubspace([x], field="complex")
    with pytest.raises(InvalidInputError):
        p_sweep(a, sub, p_grid=[4.0, 2.0])
    with pytest.raises(InvalidInputError):
        p_sweep(a, sub, p_grid=[1.5, 2.0])
    with pytest.raises(InvalidInputError):
        p_sweep(a, sub, p_grid=[])
    for other in (MatrixSubspace([np.eye(2)]), [x]):
        with pytest.raises(InvalidInputError):
            p_sweep(a, other, p_grid=[2.0])


def test_convergence_checks_single_record(cheb_sweep):
    _, _, st, recs = cheb_sweep
    rep = convergence_checks(recs[:1], st)
    assert all(c.verdict == "Inconclusive" for c in rep.checks)
    assert not rep.all_converged


def test_convergence_checks_diverging(cheb_sweep):
    _, _, st, recs = cheb_sweep
    fake = []
    for i, r in enumerate(recs):
        sigma = st.sigma + 0.1 * (i + 1)  # gap grows linearly
        fake.append(SweepRecord(p=r.p, coefficients=r.coefficients, sigma=sigma,
                                value_p=r.value_p, value_inf=float(sigma[0]),
                                dist_to_strict=r.dist_to_strict, flags=[]))
    rep = convergence_checks(fake, st)
    assert all(c.verdict == "Diverging" for c in rep.checks)


def test_convergence_checks_inconclusive_above_tol(cheb_sweep):
    # flat gap above tol: neither converged nor diverging
    _, _, st, recs = cheb_sweep
    fake = []
    for r in recs:
        sigma = st.sigma + 0.5
        fake.append(SweepRecord(p=r.p, coefficients=r.coefficients, sigma=sigma,
                                value_p=r.value_p, value_inf=float(sigma[0]),
                                dist_to_strict=r.dist_to_strict, flags=[]))
    rep = convergence_checks(fake, st, tol=0.02)
    assert all(c.verdict == "Inconclusive" for c in rep.checks)
    assert not rep.all_converged


def test_convergence_checks_tol_below_stage_tol_is_inconclusive(cheb_sweep):
    # a gap of 0 at a tol finer than the strict reference's accuracy proves nothing
    _, _, st, recs = cheb_sweep
    exact = [SweepRecord(p=r.p, coefficients=r.coefficients, sigma=st.sigma.copy(),
                         value_p=r.value_p, value_inf=float(st.sigma[0]),
                         dist_to_strict=0.0, flags=[]) for r in recs]
    rep = convergence_checks(exact, st, tol=0.5 * st.stage_tol)
    assert all(c.gap == 0.0 and c.verdict == "Inconclusive" for c in rep.checks)
    assert not rep.all_converged
    rep = convergence_checks(exact, st, tol=st.stage_tol)
    assert rep.all_converged


def test_convergence_checks_second_block():
    # s_1 = 1 instance: the second block is checked too
    a = np.diag([3.0, 1.0, 0.0]).astype(complex)
    sub = MatrixSubspace([np.diag([0.0, 1.0, 0.0])], field="complex")
    st = strict_spectral(a, sub, starts=6, seed=0)
    assert int(st.multiplicities[0]) == 1
    recs = p_sweep(a, sub, p_grid=[2.0, 4.0, 8.0], strict=st, starts=6, seed=0)
    rep = convergence_checks(recs, st)
    assert rep.second_block_checked
    assert [c.index for c in rep.checks] == [1, 2, 3]
    assert rep.all_converged


def test_convergence_checks_empty():
    with pytest.raises(InvalidInputError):
        convergence_checks([], None)


def test_counterexample_run_report():
    rep = counterexample_run(p_list=(2.0, 4.0), starts=8, seed=0)
    assert np.max(np.abs(rep.strict.sigma - np.array([1.0, 1.0, 0.5]))) <= 1e-6
    assert len(rep.per_p) == 2 and len(rep.pk_records) == 2
    assert rep.hypothetical_excluded and not rep.flags
    for entry in rep.chain:
        assert entry.top2_inequality and entry.full_inequality and entry.sigma3_conclusion
    for p, probe in rep.uniqueness:
        assert probe.unique_predicted and probe.spread <= 1e-6, p


# --- CSV ----------------------------------------------------------------------


def test_emit_csv_round_trip(tmp_path, cheb_sweep):
    _, _, _, recs = cheb_sweep
    path = tmp_path / "sweep.csv"
    emit_csv(recs, str(path))
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == len(recs) + 1  # CRLF per line, header included
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(recs)
    for row, rec in zip(rows, recs):
        assert float(row["p"]) == rec.p
        assert float(row["c1_re"]) == rec.coefficients[0].real
        assert float(row["c1_im"]) == rec.coefficients[0].imag
        for i in range(3):
            assert float(row["sigma_%d" % (i + 1)]) == rec.sigma[i]
        assert float(row["value_p"]) == rec.value_p
        assert float(row["value_inf"]) == rec.value_inf
        assert float(row["dist_to_strict"]) == rec.dist_to_strict


def test_emit_csv_real_span_headers(tmp_path):
    a = np.diag([3.0, 1.0, 0.0]).astype(complex)
    sub = MatrixSubspace([np.eye(3)], field="real")
    st = strict_spectral(a, sub, starts=6, seed=0)
    recs = p_sweep(a, sub, p_grid=[2.0], strict=st, starts=6, seed=0)
    path = tmp_path / "real.csv"
    emit_csv(recs, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "p,c1,sigma_1,sigma_2,sigma_3,value_p,value_inf,dist_to_strict"


def test_emit_csv_empty_and_single(tmp_path, cheb_sweep):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_bytes() == b"p,value_p,value_inf,dist_to_strict\r\n"
    _, _, _, recs = cheb_sweep
    path2 = tmp_path / "one.csv"
    emit_csv(recs[:1], str(path2))
    assert len(path2.read_text().splitlines()) == 2


def test_emit_csv_unwritable_path(tmp_path, cheb_sweep):
    _, _, _, recs = cheb_sweep
    bad = os.path.join(str(tmp_path), "no", "such", "dir", "out.csv")
    with pytest.raises(IoError):
        emit_csv(recs, bad)
