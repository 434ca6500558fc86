"""The fused value-and-gradient path of the solvers against the subdifferential
descriptor, which stays the independent oracle; the stacked kernel and the
lockstep descent against their one-point forms; the duality-gap bracket's
soundness and where it stops the solve."""

import numpy as np
import pytest

from kyfan import solvers
from kyfan.approx import best_approx, certify_best
from kyfan.core import MatrixSubspace
from kyfan.norms import NormSpec, _sigma_norm, dual_norm, norm
from kyfan.solvers import CERT_TOL, GAP_TOL, Objective, closes, polish, polyak_descent, x_of_coeffs
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
            p, k = obj.p_eff, obj.k_eff
            u, s, vh = np.linalg.svd(r)
            g_mat = (u[:, :k] * (s[:k] / f) ** (p - 1.0)) @ vh[:k]
            assert np.linalg.norm(g - obj.pullback(g_mat)) <= 1e-12 * np.linalg.norm(g), spec
            assert abs(dual_norm(g_mat, spec) - 1.0) <= 1e-12, spec
            assert abs(np.vdot(g_mat, r).real - f) <= 1e-12 * f, spec


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
    x0 = x_of_coeffs(c0, sub)
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
            best = x_of_coeffs(res.coefficients, sub)
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
    methods, grids = [], []
    minimize, grid_refine = solvers.minimize, solvers.grid_refine
    monkeypatch.setattr(solvers, "minimize",
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


def test_kink_newton_reaches_the_tied_optimum(rng):
    """From a point where sigma_1 and sigma_2 agree to 1e-6, the Newton steps
    land on the kink and close the bracket on the face bound."""
    a, sub, d = hermitian_vs_identity(rng)
    obj = Objective(a, sub, NormSpec.spectral())
    c = (d.max() + d.min()) / 2.0
    x0 = x_of_coeffs(np.array([(c + 1e-6 + 1e-6j) * np.sqrt(3.0)]), sub)
    x, f, bracket = solvers.kink_newton(obj, x0, obj.value(x0))
    assert abs(f - (d.max() - d.min()) / 2.0) <= 1e-12
    assert bracket is not None and bracket[1] == "face" and closes(f, bracket[0])


def test_kink_newton_adds_a_tied_value_when_a_step_rises(monkeypatch):
    """A = diag(3, 1, 0) against span{I}: BFGS stops with sigma_1 - sigma_2
    above KINK_TOL, so the first Newton steps fix one value and raise f; with
    the next value added they land on (1.5, 1.5, 0.5) in the first polish."""
    a = np.diag([3.0, 1.0, 0.0]).astype(complex)
    methods, grids = count_local_work(monkeypatch)
    res = best_approx(a, MatrixSubspace([np.eye(3)], field="complex"), NormSpec.spectral(),
                      starts=6, seed=0)
    assert methods == ["BFGS"] and grids == [] and res.trace["iterations"] == 0
    assert res.trace["bound"] == "face" and res.trace["duality_gap"] <= GAP_TOL * (1.0 + res.value)
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
    Hoelder bound closes the bracket with ||g|| <= face_tol(f), CERT_TOL.  Run on to
    gtol = 1e-12 it took 42 evaluations; it takes 14, and the point it
    stops at is certified."""
    a = rand_complex(rng, 3, 3)
    sub = MatrixSubspace([rand_complex(rng, 3, 3) for _ in range(3)], field="real")
    spec = NormSpec.kyfan(3, 2)
    calls = count_value_and_grad(monkeypatch)
    res = best_approx(a, sub, spec, starts=6, iters=150)
    assert res.trace["iterations"] == 0 and res.trace["bound"] == "hoelder"
    assert len(calls) <= 21
    obj = Objective(a, sub, spec)
    x = x_of_coeffs(res.coefficients, sub)
    f, g = obj.value_and_grad(x)
    assert closes(f, obj.hoelder(x, f, g)) and np.linalg.norm(g) <= min(obj.face_tol(f), CERT_TOL)
    assert certify_best(a, sub, spec, res).found


# approx benchmark workload, seed 5, case 12: a 2 x 2 complex matrix against a
# complex dim-1 subspace in the Schatten-3 norm (perfbench/workloads.py,
# make_plan("approx", 5).cases[12], library seed 5095043)
SEED5_CASE12_A = np.array([
    [0.1923790265486738 + 0.09889744535281286j, -0.7012195542230358 - 0.25242638232092607j],
    [-0.1521086513787111 - 0.8067984678598894j, 0.1666136994198889 - 0.1375473485391715j]])
SEED5_CASE12_X = np.array([
    [0.055285006460712424 + 0.04965157540289682j, 0.14542975351710014 + 1.750641029886244j],
    [0.9054525402235706 + 0.42885484706716465j, -0.07555811664062251 + 1.9242766348495666j]])


def solve_seed5_case12(scale=1.0):
    sub = MatrixSubspace([SEED5_CASE12_X], field="complex")
    spec = NormSpec.schatten(3)
    a = scale * SEED5_CASE12_A
    res = best_approx(a, sub, spec, starts=6, iters=150, seed=5095043)
    assert res.converged and res.trace["iterations"] == 0
    return certify_best(a, sub, spec, res)


def test_bracket_stop_waits_for_a_certifiable_gradient(monkeypatch):
    """On this instance the Hoelder bound closes while ||P_S G|| = 1.2e-7 is
    still above certify_best's cert_tol = 1e-7.  With the ||g|| clause BFGS
    runs on and the point is certified; without it, it is not."""
    assert solve_seed5_case12().found
    monkeypatch.setattr(Objective, "face_tol", lambda self, f: np.inf)
    monkeypatch.setattr(solvers, "CERT_TOL", np.inf)
    cert = solve_seed5_case12()
    assert not cert.found and cert.residual_perp > 1e-7


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e3])
def test_bracket_stop_is_certifiable_at_any_scale(scale):
    """g does not change with the scale of A, but face_tol(f) grows like 1/f:
    at scale 1e-3 it is 1.7e-5, and a stop on it alone left ||P_S G|| =
    1.4e-5.  The stop also waits for ||g|| <= CERT_TOL, certify_best's
    default, so every scale is certified."""
    assert solve_seed5_case12(scale).found


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

