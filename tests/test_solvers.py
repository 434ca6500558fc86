"""The fused value-and-gradient path of the solvers against the subdifferential
descriptor, which stays the independent oracle; the stacked kernel and the
lockstep descent against their one-point forms; the duality-gap bracket's
soundness and where it stops the solve."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

import kyfan
from kyfan import solvers
from kyfan.approx import best_approx, certify_best
from kyfan.core import MatrixSubspace
from kyfan.norms import NormSpec, _sigma_norm, dual_norm, norm
from kyfan.solvers import CERT_TOL, GAP_TOL, Objective, closes, polish, polyak_descent
from kyfan.subdiff import canonical_extreme, descriptor

from conftest import rand_complex, rand_with_sigma
from helpers import polyak_descent_one

SPECS = [NormSpec.spectral(), NormSpec.kyfan(2, 2), NormSpec.kyfan(3, 2),
         NormSpec.kyfan(7, 3), NormSpec.kyfan(3, 1), NormSpec.schatten(3)]
# p < 2: the closed-form subgradient holds, the descriptor oracle does not
LOW_P_SPECS = [NormSpec.schatten(1.3), NormSpec.kyfan(1.5, 2)]

# random, tied across k = 2 and 3, and rank-deficient residual spectra
SPECTRA = [None, [3.0, 2.0, 2.0, 2.0], [2.0, 1.0, 0.0, 0.0]]


def oracle_grad(obj, r):
    """Pull-back of canonical_extreme(descriptor(r)), one basis matrix at a time."""
    desc = descriptor(r, obj.p, obj.k)
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
    return r + sub.combine(c), sub, sub.real_coordinates(sub.combine(c))


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
    """0 at a zero residual; below p = 2 the pull-back of U_k diag((sigma_i/f)^(p-1)) V_k*,
    which has dual norm 1 and pairing f (at p = 1 also on a rank-deficient residual)."""
    sub = MatrixSubspace([rand_complex(rng, 3, 3)], field="complex")
    obj = Objective(np.zeros((3, 3)), sub, NormSpec.kyfan(3, 2))
    f, g = obj.value_and_grad(np.zeros(2))
    assert f == 0.0 and np.array_equal(g, np.zeros(2))
    for spec in [NormSpec.kyfan(1.5, 2), NormSpec.trace()]:
        for sigma in [None, [2.0, 1.0, 0.0]]:
            a, sub, x = instance(rng, sigma, "complex", 3, 3, dim=1)
            obj = Objective(a, sub, spec)
            f, g = obj.value_and_grad(x)
            r = obj.residual(x)
            assert abs(f - norm(r, spec)) <= 1e-12 * f
            p, k = obj.p, obj.k
            u, s, vh = np.linalg.svd(r)
            g_mat = (u[:, :k] * (s[:k] / f) ** (p - 1.0)) @ vh[:k]
            assert np.linalg.norm(g - obj.pullback(g_mat)) <= 1e-12 * np.linalg.norm(g), spec
            assert abs(dual_norm(g_mat, spec) - 1.0) <= 1e-12, spec
            assert abs(np.vdot(g_mat, r).real - f) <= 1e-12 * f, spec


def test_fused_gradient_bit_identical_to_closed_form(rng):
    """value_and_grad's subgradient is U_k diag((sigma_i/f)^(p-1)) V_k*, written out
    here with every floating-point operation pinned, on one point and on a stack."""
    for spec in SPECS + LOW_P_SPECS:
        for sigma in SPECTRA:
            a, sub, x = instance(rng, sigma, "complex", 4, 5)
            obj = Objective(a, sub, spec)
            xs = np.stack([x, x + 0.1 * rng.standard_normal(x.size)])
            for pts in (x, xs):
                f, g = obj.value_and_grad(pts)
                u, s, vh = np.linalg.svd(obj.residual(pts), full_matrices=False)
                want_f = _sigma_norm(s, obj.p, obj.k)
                p, k = obj.p, obj.k
                ratio = s[..., :k] / np.where(want_f > 0, want_f, 1.0)[..., None]
                want_g = obj.pullback((u[..., :k] * ratio[..., None, :] ** (p - 1.0)) @ vh[..., :k, :])
                assert np.array_equal(f, want_f) and np.array_equal(g, want_g), spec


def test_fused_gradient_central_difference(rng):
    h = 1e-6
    for t in range(12):
        field = ["real", "complex"][t % 2]
        a, sub, x = instance(rng, None, field, 3, 4)
        for spec in SPECS + LOW_P_SPECS:
            obj = Objective(a, sub, spec)
            _, g = obj.value_and_grad(x)
            eye = np.eye(x.size)
            fd = np.array([(obj.value(x + h * e) - obj.value(x - h * e)) / (2 * h) for e in eye])
            assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd))), (t, spec)


def test_one_svd_per_fused_evaluation(rng, monkeypatch):
    a, sub, x = instance(rng, None, "complex", 4, 4)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    Objective(a, sub, NormSpec.kyfan(3, 2)).value_and_grad(x)
    assert len(calls) == 1


def in_subspace_instance(rng, field, m=3, n=4):
    """(a, subspace, x0, xs): a lies in the subspace, the residual at x0 is
    exactly 0 (unit-matrix basis, integer coordinates), xs are random points."""
    e00, e12 = np.zeros((m, n)), np.zeros((m, n))
    e00[0, 0] = e12[1, 2] = 1.0
    sub = MatrixSubspace([e00, e12, rand_complex(rng, m, n)], field=field)
    c0 = np.array([2.0, -3.0, 0.0])
    x0 = sub.real_coordinates(sub.combine(c0))
    xs = 2.0 * rng.standard_normal((5, x0.size))
    return sub.combine(c0), sub, x0, xs


def assert_close(got, want, rtol=1e-13):
    assert np.linalg.norm(np.subtract(got, want)) <= rtol * np.linalg.norm(want), (got, want)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_stacked_kernel_rows_match_single_points(rng, field):
    a, sub, x0, xs = in_subspace_instance(rng, field)
    stack = np.vstack([xs[:2], x0, xs[2:]])  # the zero-residual point in the middle
    for spec in SPECS:
        obj = Objective(a, sub, spec)
        fs, gs = obj.value_and_grad(stack)
        vals = obj.value_many(stack)
        assert fs.shape == vals.shape == (len(stack),) and gs.shape == stack.shape
        for x, f_row, g_row, v_row in zip(stack, fs, gs, vals):
            f, g = obj.value_and_grad(x)
            assert isinstance(f, float) and g.shape == x.shape
            assert_close(f_row, f)
            assert_close(g_row, g)
            assert_close(v_row, obj.value(x))
        assert fs[2] == 0.0 and not np.any(gs[2])


def old_sigma_norm(sigma, p, k):
    """The formula _sigma_norm used before it dropped errstate and the double where."""
    top = sigma[..., :k]
    s1 = top[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(s1[..., None] > 0, top / np.where(s1[..., None] > 0, s1[..., None], 1.0), 0.0)
        val = s1 * np.sum(ratios ** p, axis=-1) ** (1.0 / p)
    return np.where(s1 > 0, val, 0.0)


def test_sigma_norm_zero_spectral_and_old_formula(rng):
    zero = np.zeros(4)
    for p, k in [(None, 1), (1.0, 4), (2.0, 2), (3.5, 3), (50.0, 4)]:
        assert _sigma_norm(zero, p, k) == 0.0
    s = np.sort(rng.uniform(0.0, 3.0, (6, 4)), axis=-1)[:, ::-1]
    s[2] = 0.0
    s[4] *= 1e-200
    assert np.array_equal(_sigma_norm(s, None, 1), s[:, 0])
    assert norm(np.diag(s[0]), NormSpec.spectral()) == s[0, 0]
    for p, k in [(1.0, 4), (2.0, 1), (2.0, 2), (3.5, 3), (50.0, 4)]:
        got = _sigma_norm(s, p, k)
        assert got[2] == 0.0
        assert np.allclose(got, old_sigma_norm(s, p, k), rtol=1e-15, atol=0.0), (p, k)


def lockstep_cases(rng, in_subspace):
    """(label, fg, starts) on real and complex fields.

    With in_subspace, A lies in the subspace and the first start sits where
    the residual is exactly 0; otherwise A is moved off the subspace.
    """
    for field in ["real", "complex"]:
        a, sub, x0, xs = in_subspace_instance(rng, field)
        starts = np.vstack([x0, xs])
        if not in_subspace:
            a = a + rand_complex(rng, *a.shape)
        for spec in [NormSpec.spectral(), NormSpec.kyfan(3, 2), NormSpec.schatten(4)]:
            yield (field, spec.label()), Objective(a, sub, spec).value_and_grad, starts


@pytest.mark.parametrize("in_subspace", [False, True], ids=["off", "in"])
def test_lockstep_descent_matches_one_start_loop(rng, in_subspace):
    """Each row of the lockstep descent follows the one-start loop.

    20 steps: the descent amplifies round-off, and a 1e-15 relative change of
    the start alone moves the one-start loop's best value by about 1e-13
    after 20 steps, 1e-9 after 30-40 and 1e-4 after 60 on these instances.
    """
    for label, fg, starts in lockstep_cases(rng, in_subspace):
        best_x, best_f = polyak_descent(fg, starts, iters=20)
        assert best_x.shape == starts.shape and best_f.shape == (len(starts),)
        for x0, fb in zip(starts, best_f):
            ref_f = polyak_descent_one(fg, x0, iters=20)[1]
            # relative to the optimum, or to the start's value where the optimum is 0
            scale = fg(x0)[0] if in_subspace else ref_f
            assert abs(fb - ref_f) <= 1e-10 * scale, (label, fb, ref_f)
        if in_subspace:
            # the start on the exact solution stops at once and stays there
            assert best_f[0] == 0.0 and np.array_equal(best_x[0], starts[0]), label


def count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    return calls


def test_lockstep_descent_makes_one_svd_per_step(rng, monkeypatch):
    a, sub, x = instance(rng, None, "complex", 3, 3)
    obj = Objective(a, sub, NormSpec.kyfan(3, 2))
    starts = x + rng.standard_normal((6, x.size))
    calls = count_svd(monkeypatch)
    polyak_descent(obj.value_and_grad, starts, iters=20)
    assert len(calls) <= 21


def test_best_approx_descent_svd_count(rng, monkeypatch):
    """A smooth dim-3 solve (no grid) closes its bracket in the polish of the
    best start: one polish, and outside it no more SVDs than one per descent
    step plus the final residual's."""
    a = rand_complex(rng, 3, 3)
    sub = MatrixSubspace([rand_complex(rng, 3, 3) for _ in range(3)], field="real")
    calls = count_svd(monkeypatch)
    in_polish = []

    def counted_polish(*args, **kw):
        before = len(calls)
        out = polish(*args, **kw)
        in_polish.append(len(calls) - before)
        return out

    monkeypatch.setattr(solvers, "polish", counted_polish)
    best_approx(a, sub, NormSpec.kyfan(3, 2), starts=6, iters=150)
    assert len(in_polish) == 1
    assert len(calls) - sum(in_polish) <= 151 + 1 < 6 * 151


# --- duality-gap bracket ------------------------------------------------------

BRACKET_SPECS = [NormSpec.spectral(), NormSpec.kyfan(3, 2), NormSpec.kyfan(2, 1),
                 NormSpec.schatten(4), NormSpec.schatten(2), NormSpec.trace(),
                 NormSpec.kyfan(1, 2), NormSpec.schatten(1.3), NormSpec.kyfan(1.5, 2)]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_lower_bound_never_exceeds_the_minimum(rng, field):
    """Objective.lower_bound at points near the optimum and near and far from
    P_S A stays below every value the solver reaches.  A Hermitian matrix
    against span{I} has a kink optimum in the sigma_1 norms, and so do some of
    the random complex instances; near them the face bound takes over, and it
    must stay sound there too."""
    m = rand_complex(rng, 3, 3) if field == "complex" else rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(m)
    tied = ((q * np.array([1.7, -0.4, -1.1])) @ q.conj().T,
            MatrixSubspace([np.eye(3)], field=field))  # sigma_1 tied at the optimum
    kinds = []
    for spec in BRACKET_SPECS:
        cases = [(rand_complex(rng, 3, 3),
                  MatrixSubspace([rand_complex(rng, 3, 3) for _ in range(2)], field=field))
                 for _ in range(3)]
        for a, sub in cases + [tied]:
            obj = Objective(a, sub, spec)
            res = best_approx(a, sub, spec, starts=6, seed=1)
            best = sub.real_coordinates(res.y)
            d = best.size
            points = [best] + [best + t * rng.standard_normal(d) for t in (1e-9, 1e-7, 1e-6, 1e-3)]
            points += [obj.a_x + t * rng.standard_normal(d) for t in (0.01, 0.1, 1.0, 3.0, 10.0)]
            for x in points:
                f, g = obj.value_and_grad(x)
                lower, kind = obj.lower_bound(x, f, g)
                kinds.append(kind)
                assert 0.0 <= lower <= res.value + 1e-12 * (1.0 + res.value), spec
    assert "face" in kinds


def test_bracket_closes_at_least_squares_point(rng):
    # Schatten-2 is Frobenius: the residual at P_S A is orthogonal to the subspace
    a = rand_complex(rng, 3, 3)
    sub = MatrixSubspace([rand_complex(rng, 3, 3) for _ in range(2)], field="complex")
    obj = Objective(a, sub, NormSpec.schatten(2))
    f, g = obj.value_and_grad(obj.a_x)
    lower, kind = obj.lower_bound(obj.a_x, f, g)
    assert abs(f - lower) <= 1e-13 * f and kind == "hoelder"
    _, f2, bracket = polish(obj, obj.a_x)
    assert bracket is not None and abs(f2 - bracket[0]) <= GAP_TOL * (1.0 + f2)


def count_local_work(monkeypatch):
    """Records "BFGS" per solvers.bfgs run and each scipy method polish calls
    (polish imports scipy.optimize.minimize where it calls it), and grid passes."""
    methods, grids = [], []
    bfgs, minimize, grid_refine = solvers.bfgs, scipy.optimize.minimize, solvers.grid_refine
    monkeypatch.setattr(solvers, "bfgs", lambda *args, **kw: methods.append("BFGS") or bfgs(*args, **kw))
    monkeypatch.setattr(scipy.optimize, "minimize",
                        lambda *args, **kw: methods.append(kw["method"]) or minimize(*args, **kw))
    monkeypatch.setattr(solvers, "grid_refine",
                        lambda *args, **kw: grids.append(1) or grid_refine(*args, **kw))
    return methods, grids


def test_smooth_optimum_stops_on_the_bracket(rng, monkeypatch):
    a = rand_complex(rng, 3, 3)
    sub = MatrixSubspace([rand_complex(rng, 3, 3) for _ in range(2)], field="complex")
    spec = NormSpec.schatten(4)
    methods, grids = count_local_work(monkeypatch)
    res = best_approx(a, sub, spec, starts=6, seed=0)
    assert "Nelder-Mead" not in methods and methods.count("BFGS") == 1
    assert grids == [] and res.trace["iterations"] == 0
    assert res.converged and abs(res.trace["duality_gap"]) <= GAP_TOL * (1.0 + res.value)
    assert certify_best(a, sub, spec, res).found


def test_p_below_two_stops_on_the_bracket(rng, monkeypatch):
    """Below p = 2 the solve takes the same path: the closed-form subgradient
    drives BFGS and the Hoelder bound closes the bracket in the first polish."""
    a = rand_complex(rng, 3, 3)
    sub = MatrixSubspace([rand_complex(rng, 3, 3) for _ in range(2)], field="complex")
    methods, grids = count_local_work(monkeypatch)
    res = best_approx(a, sub, NormSpec.schatten(1.3), starts=6, seed=0)
    assert methods == ["BFGS"] and grids == [] and res.trace["iterations"] == 0
    assert res.converged and res.trace["bound"] == "hoelder"
    assert res.trace["duality_gap"] <= GAP_TOL * (1.0 + res.value)


def hermitian_vs_identity(rng):
    """A Hermitian A = Q diag(d) Q* against span{I} in the spectral norm: the
    optimum c = (max d + min d) / 2 ties sigma_1 (a kink) at (max d - min d) / 2."""
    d = np.array([1.7, -0.4, -1.1])
    q, _ = np.linalg.qr(rand_complex(rng, 3, 3))
    return (q * d) @ q.conj().T, MatrixSubspace([np.eye(3)], field="complex"), d


def test_kink_optimum_closes_the_bracket(rng, monkeypatch):
    a, sub, d = hermitian_vs_identity(rng)
    methods, grids = count_local_work(monkeypatch)
    res = best_approx(a, sub, NormSpec.spectral(), starts=6, seed=0)
    assert grids == [] and "Nelder-Mead" not in methods
    assert res.converged and res.trace["duality_gap"] <= GAP_TOL * (1.0 + res.value)
    assert np.max(np.abs(res.y - (d.max() + d.min()) / 2.0 * np.eye(3))) <= 1e-6
    assert abs(res.value - (d.max() - d.min()) / 2.0) <= 1e-9


def test_face_bound_closes_only_where_certify_best_certifies():
    """Near the kink optimum c of hermitian_vs_identity: at c + delta sigma_1
    and sigma_2 split by 2 delta, at c + i delta they stay tied.  Wherever
    lower_bound closes the bracket there, certify_best certifies Y.  With the
    face grouped at KINK_TOL, the bound closed at 100 of these 120 points and
    60 of them, every real offset, were not certifiable."""
    spec = NormSpec.spectral()
    closed = 0
    for seed in range(20):
        a, sub, d = hermitian_vs_identity(np.random.default_rng(seed))
        obj = Objective(a, sub, spec)
        c = (d.max() + d.min()) / 2.0
        for delta in (1e-8, 3e-8, 1e-7):
            for offset in (delta, 1j * delta):
                x = sub.real_coordinates(sub.combine([(c + offset) * np.sqrt(3.0)]))
                f, g = obj.value_and_grad(x)
                if closes(f, obj.lower_bound(x, f, g)[0]):
                    closed += 1
                    y = (x @ sub.rows).reshape(a.shape)
                    assert certify_best(a, sub, spec, y).found, (seed, offset)
    assert closed >= 40


def test_kink_newton_reaches_the_tied_optimum(rng):
    """From a point where sigma_1 and sigma_2 agree to 1e-6, the Newton steps
    land on the kink and close the bracket on the face bound."""
    a, sub, d = hermitian_vs_identity(rng)
    obj = Objective(a, sub, NormSpec.spectral())
    c = (d.max() + d.min()) / 2.0
    x0 = sub.real_coordinates(sub.combine([(c + 1e-6 + 1e-6j) * np.sqrt(3.0)]))
    x, f, bracket = solvers.kink_newton(obj, x0, obj.value(x0))
    assert abs(f - (d.max() - d.min()) / 2.0) <= 1e-12
    assert bracket is not None and bracket[1] == "face" and closes(f, bracket[0])


def test_kink_newton_adds_a_tied_value_when_a_step_rises(monkeypatch):
    """A = diag(3, 1, 0) against span{I} from the least-squares start, where
    sigma = (5/3, 4/3, 1/3) and sigma_2 is 20% below sigma_1.  The first Newton
    step fixes one value and raises f; with the next value added (t goes
    1 -> 2) the steps land on (1.5, 1.5, 0.5) and the face bound closes."""
    a = np.diag([3.0, 1.0, 0.0]).astype(complex)
    obj = Objective(a, MatrixSubspace([np.eye(3)], field="complex"), NormSpec.spectral())
    ts = []
    newton_step = Objective.newton_step

    def recorded_step(self, *args):
        out = newton_step(self, *args)
        ts.append(out[2])
        return out

    monkeypatch.setattr(Objective, "newton_step", recorded_step)
    x0 = obj.a_x
    assert np.allclose(np.linalg.svd(obj.residual(x0), compute_uv=False), [5 / 3, 4 / 3, 1 / 3])
    x, f, bracket = solvers.kink_newton(obj, x0, obj.value(x0))
    assert ts[0] == 1 and ts[-1] == 2
    assert abs(f - 1.5) <= 1e-12 and bracket is not None and bracket[1] == "face"
    assert closes(f, bracket[0])
    assert np.max(np.abs(np.linalg.svd(obj.residual(x), compute_uv=False) - [1.5, 1.5, 0.5])) <= 1e-12


def test_first_line_search_moves_off_a_kinked_start(monkeypatch):
    """diag(3, 1, 0) against span{I}: the weak Wolfe line search of the first
    bfgs run leaves its start, a kinked point where a strong Wolfe search
    cannot finish, and the solve closes on the face bound in 28 evaluations
    (62 when the first run stayed at its start)."""
    a = np.diag([3.0, 1.0, 0.0]).astype(complex)
    runs = []
    bfgs = solvers.bfgs

    def recorded_bfgs(obj, x, handoff):
        out = bfgs(obj, x, handoff)
        runs.append((x, out[0]))
        return out

    monkeypatch.setattr(solvers, "bfgs", recorded_bfgs)
    res = best_approx(a, MatrixSubspace([np.eye(3)], field="complex"), NormSpec.spectral(),
                      starts=6, seed=0)
    assert len(runs) == 1 and not np.array_equal(runs[0][0], runs[0][1])
    assert res.trace["iterations"] == 0 and res.trace["bound"] == "face"
    assert res.trace["duality_gap"] <= GAP_TOL * (1.0 + res.value)
    assert res.trace["evaluations"] <= 35
    assert np.max(np.abs(res.sigma - [1.5, 1.5, 0.5])) <= 1e-12


# --- where the polish stops ---------------------------------------------------

def count_value_and_grad(monkeypatch):
    calls = []
    value_and_grad = Objective.value_and_grad
    monkeypatch.setattr(Objective, "value_and_grad",
                        lambda self, x: calls.append(1) or value_and_grad(self, x))
    return calls


def test_polish_stops_at_the_first_certifiable_bracket(rng, monkeypatch):
    """The smooth dim-3 solve of test_best_approx_descent_svd_count: BFGS stops at its first iterate whose
    Hoelder bound closes the bracket with ||g|| <= face_tol(f), CERT_TOL: 7
    evaluations here, and the point it stops at is certified."""
    a = rand_complex(rng, 3, 3)
    sub = MatrixSubspace([rand_complex(rng, 3, 3) for _ in range(3)], field="real")
    spec = NormSpec.kyfan(3, 2)
    calls = count_value_and_grad(monkeypatch)
    res = best_approx(a, sub, spec, starts=6, iters=150)
    assert res.trace["iterations"] == 0 and res.trace["bound"] == "hoelder"
    assert len(calls) <= 21
    obj = Objective(a, sub, spec)
    x = sub.real_coordinates(res.y)
    f, g = obj.value_and_grad(x)
    assert closes(f, obj.hoelder(x, f, g)) and np.linalg.norm(g) <= min(obj.face_tol(f), CERT_TOL)
    assert certify_best(a, sub, spec, res).found


# approx benchmark workload, seed 6, case 0: a 2 x 2 complex matrix against a
# complex dim-1 subspace in the Schatten-3 norm (perfbench/workloads.py,
# make_plan("approx", 6).cases[0], library seed 6000018)
SEED6_CASE0_A = np.array([
    [-1.0334038249136566 - 0.6406992664377421j, -0.06009124608466243 + 0.22153295520125355j],
    [0.646146460623984 - 0.28236312823942633j, -0.8060042758606139 - 1.0045455327227812j]])
SEED6_CASE0_X = np.array([
    [0.9946558452995268 + 1.2858711351517036j, -0.1578995830357877 - 0.45954694259169754j],
    [0.3957234096051707 + 0.11495065839496237j, 0.5564303625800218 + 0.07301829392134637j]])


def solve_seed6_case0(scale=1.0):
    sub = MatrixSubspace([SEED6_CASE0_X], field="complex")
    spec = NormSpec.schatten(3)
    a = scale * SEED6_CASE0_A
    res = best_approx(a, sub, spec, starts=6, iters=150, seed=6000018)
    assert res.converged and res.trace["iterations"] == 0
    return certify_best(a, sub, spec, res)


def test_bracket_stop_waits_for_a_certifiable_gradient(monkeypatch):
    """On this instance the Hoelder bound closes while ||P_S G|| = 1.1e-7 is
    still above certify_best's cert_tol = 1e-7.  With the ||g|| clause BFGS
    runs on and the point is certified; without it, it is not."""
    assert solve_seed6_case0().found
    monkeypatch.setattr(Objective, "face_tol", lambda self, f: np.inf)
    monkeypatch.setattr(solvers, "CERT_TOL", np.inf)
    cert = solve_seed6_case0()
    assert not cert.found and cert.residual_perp > 1e-7


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e3])
def test_bracket_stop_is_certifiable_at_any_scale(scale):
    """g does not change with the scale of A, but face_tol(f) grows like 1/f:
    at scale 1e-3 it is 1.3e-5, and a stop on it alone left ||P_S G|| =
    6.9e-6 (at 1e-2, 1.5e-7).  The stop also waits for ||g|| <= CERT_TOL,
    certify_best's default, so every scale is certified."""
    assert solve_seed6_case0(scale).found


# approx benchmark workload, seed 1, case 17: a 4 x 4 complex matrix against a
# complex dim-4 subspace in the spectral norm, whose optimum ties sigma_1 and
# sigma_2 (perfbench/workloads.py, make_plan("approx", 1).cases[17], library
# seed 1134626)
SEED1_CASE17_A = np.array([
    [0.3895609368273409 - 0.4255616369610369j, 0.44063619993841463 + 0.7856747117400986j,
     -0.07600234207494828 - 0.9866606100364075j, 0.603260975518862 + 0.14564806251814233j],
    [-0.5599581806406196 + 0.5486550409987431j, -0.8147040937706794 + 0.3986527359793355j,
     -0.3051967631011988 + 0.6013859378805051j, -1.504567271754327 - 0.6216745516167093j],
    [-0.3204213289620462 + 0.2615290271539135j, 1.2706571768006507 - 0.38047048891442803j,
     1.3131058570699095 - 0.0887499912523068j, -1.2422352901450644 - 0.45340081455480774j],
    [0.5738570738845524 - 1.5131566781127033j, 0.5478517491509529 + 0.6447197075032086j,
     0.6346295429948835 - 0.27511839163695406j, -0.29655488958191184 - 0.010254994187988026j],
])
SEED1_CASE17_X = np.array([
    [
        [-0.277517179779341 - 0.7436906559586677j, -1.226785998831758 + 1.0288401952394186j,
         0.1970535514654824 - 0.4490422758111304j, -0.8854771794268511 - 0.011515944490901596j],
        [0.4853567354022325 + 0.2965659214741641j, 0.7126797493013671 - 0.4431879717162252j,
         -0.9525964047693646 + 0.028984378325207494j, 0.3348435114716579 - 0.5913206130490092j],
        [-0.5818688267102724 + 1.0400023493620878j, 1.0897565693017937 - 0.6640488262956052j,
         -1.728012280854239 + 1.5253746182125714j, -0.20482872358323032 + 0.5802237659319823j],
        [0.8224122275037179 - 0.4910012589023864j, -0.16484762621064714 + 1.003651997082913j,
         0.21631745446101136 + 1.039580518489905j, -0.7583081898089906 + 0.358419180074723j],
    ],
    [
        [-1.1354769935883953 - 0.07679959502901101j, -0.5566652089127733 - 0.1326715359629553j,
         0.13929980891329158 + 1.2360365795668258j, 0.0644972553624092 + 0.45368586374693715j],
        [-0.36124597897162314 + 0.4916433127822345j, -1.1042550619025173 + 0.5062747067566153j,
         -0.6043552876427873 + 0.04952003023159289j, 0.4158966310177549 + 1.3270374169619439j],
        [-0.2967915730997399 + 0.9781195629133155j, -0.4285422028291521 + 0.00040524069915743563j,
         -0.8581456396251924 - 1.5275700748493068j, -0.1397744461091479 - 0.3218839887709831j],
        [-0.2855246947310535 + 0.6624012659470836j, -0.05531305597247266 - 1.4039643051270063j,
         -0.6260233271347179 - 0.327934773168565j, -0.32919127853262264 + 0.006184928955838972j],
    ],
    [
        [-0.05150839796721231 - 0.07338930136704327j, -2.1982427985726267 + 1.587005115114601j,
         1.626303307987394 - 0.7133250682544142j, -0.23738073915253402 + 0.4162803467671437j],
        [1.0478401632138448 + 1.1372403160255198j, -0.5941968876552812 + 0.8952366390117846j,
         -0.6023811618408529 - 0.027252844825044167j, 0.6236699326466634 - 0.9040242050849124j],
        [0.1681735015169849 + 0.8018248081411316j, 0.7407728339305752 + 0.9227288789826624j,
         0.2837821225711739 + 0.07591199010601064j, -0.7894128346233503 - 0.8519180252131895j],
        [0.3532613222217717 + 0.17648864708313122j, 0.15442717595351488 + 0.25294930793869247j,
         -0.9784678363501869 + 0.22079401032384383j, 0.27445835891645515 - 0.22221061412805082j],
    ],
    [
        [0.26378620582134676 + 0.954308453785834j, 0.1353832179885254 - 0.6512559391818588j,
         -1.2655574161451186 - 0.4612818629562123j, -0.04542727608399101 + 0.006394701346499509j],
        [-0.4064627420671934 - 0.2702367719082906j, -0.2709673819029939 - 0.6318551583801649j,
         -0.09067904567599207 + 1.3576404306417276j, 1.2382962771980361 - 1.057449089278938j],
        [-0.5392274233819189 + 0.1552695138207907j, 0.18435567598997876 - 0.49202790660645035j,
         0.18706220442975785 + 0.7146740505529541j, 0.47009609825441034 - 0.5201512241729019j],
        [0.09034240437672729 + 0.05377881409481603j, 0.5669455086446648 + 1.0801281839063688j,
         -0.6455742217325994 - 0.6676120660209918j, -1.3506633705450575 - 0.7215985512886137j],
    ],
])


def test_sigma1_kink_is_handed_to_the_newton_step(monkeypatch):
    """BFGS stops at its first iterate with sigma_2 >= sigma_1 (1 - KINK_TOL)
    and kink_newton closes the bracket on the face bound: 60 evaluations.
    Run on at the tie, BFGS took 188."""
    sub = MatrixSubspace(list(SEED1_CASE17_X), field="complex")
    spec = NormSpec.spectral()
    methods, grids = count_local_work(monkeypatch)
    res = best_approx(SEED1_CASE17_A, sub, spec, starts=6, iters=150, seed=1134626)
    assert "Nelder-Mead" not in methods and grids == [] and res.trace["iterations"] == 0
    assert res.converged and res.trace["bound"] == "face"
    assert res.trace["evaluations"] <= 80
    assert certify_best(SEED1_CASE17_A, sub, spec, res).found


def test_optimal_start_is_kept(monkeypatch):
    """Schatten-2 is Frobenius, so the least-squares start is optimal and
    BFGS cannot improve on it.  polish values its start with BFGS's kernel;
    a values-only SVD differs in the last bit, and rejecting the start on
    that sent 22 of these 60 solves into Polyak descent and Nelder-Mead."""
    rng = np.random.default_rng(12345)
    methods, grids = count_local_work(monkeypatch)
    for n in (6, 4, 3):
        for _ in range(20):
            a = rand_complex(rng, n, n)
            sub = MatrixSubspace([rng.standard_normal((n, n))], field="real")
            methods.clear()
            res = best_approx(a, sub, NormSpec.schatten(2), starts=6, seed=0)
            assert methods == ["BFGS"] and res.trace["iterations"] == 0, n
            assert res.converged and res.trace["bound"] == "hoelder"
    assert grids == []


def test_evaluations_count_the_residuals(rng, monkeypatch):
    """trace["evaluations"]: on a smooth solve the 6 start values (one stacked
    SVD) and one per value_and_grad call, nothing else."""
    a = rand_complex(rng, 3, 3)
    sub = MatrixSubspace([rand_complex(rng, 3, 3) for _ in range(2)], field="complex")
    calls = count_value_and_grad(monkeypatch)
    res = best_approx(a, sub, NormSpec.schatten(4), starts=6, seed=0)
    assert res.trace["bound"] == "hoelder"
    assert res.trace["evaluations"] == 6 + len(calls)


def test_import_leaves_scipy_optimize_unloaded():
    """Only polish's Nelder-Mead fallback uses scipy, and it imports it there."""
    src = os.path.dirname(os.path.dirname(kyfan.__file__))
    code = "import sys, kyfan; sys.exit('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
