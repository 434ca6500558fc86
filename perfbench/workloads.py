"""Seeded inputs, operations and output re-checks for the three workloads.

An operation is one call into kyfan's public API (for ``approx``, the pair
best_approx + certify_best).  Every input is generated here from the
workload seed with numpy only; the library sees the generated matrices and
seed= arguments derived from the workload seed.  Each workload cycles
through a fixed table of slots (shape, norm, structure), so two seeds
differ in the entries of the matrices, not in the mix of work.

Re-checks use an independent singular-value formula for every norm; the
only library call a check relies on is verify_certificate, which is itself
one of the ``decide`` queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

WORKLOADS = ("decide", "approx", "strict")

# counterexample_run settings: the CLI defaults
STARTS = 12
ITERS = 150
# best_approx starts: half the CLI default, as in the ROADMAP baseline call
# (3x3, dim 2, starts=6), so that a run holds four or more passes over the
# approx slot table; with two or three its time hung on a few instances
APPROX_STARTS = 6
# strict_spectral / p_sweep settings: fewer starts and iterations, so that a
# run holds two passes over the strict slot table
STRICT_STARTS = 4
STRICT_ITERS = 75
SWEEP_GRID = [2.0, 8.0]
# Dykstra budget of subspace_certificate.  At the library default (5000) the
# p = 16 tied (6, 4) slot runs out of iterations on about half of its
# instances at 2-3 s each, which is then nearly half of a decide pass and
# makes its time a coin toss; at 1000 those searches still end uncertified
# (certified_ratio) at a fifth of the cost.
CERT_MAX_ITER = 1000


@dataclass
class Op:
    kind: str        # metric stem of the public function the op times
    call: object     # () -> result
    check: object    # result -> Outcome
    parts: dict = field(default_factory=dict)  # kind -> seconds, for ops making two calls


@dataclass
class Outcome:
    ok: bool
    certified: bool | None = None   # None: the op runs no certificate search
    converged: bool | None = None   # None: the op runs no iterative solve


# ---------------------------------------------------------------------------
# independent references


def ref_sigma(a):
    return np.linalg.svd(a, compute_uv=False)


def norm_of(sigma, p, k):
    """(sum of the k largest sigma^p)^(1/p); p None is the spectral norm."""
    s1 = float(sigma[0])
    if p is None or s1 == 0.0:
        return s1
    top = sigma[: sigma.size if k is None else k]
    return s1 * float(np.sum((top / s1) ** p)) ** (1.0 / p)


def ref_norm(a, p, k):
    return norm_of(ref_sigma(a), p, k)


def close(x, y, rel, floor=1.0):
    return abs(x - y) <= rel * max(floor, abs(y))


def _vec(mats, field):
    # columns = vectorized matrices; the real field works on the realified space
    v = np.stack([np.asarray(m).ravel() for m in mats], axis=1)
    return np.concatenate([v.real, v.imag]) if field == "real" else v


def ls_projection(a, basis, field):
    """Frobenius-orthogonal projection of a onto span(basis) over the field."""
    coef, *_ = np.linalg.lstsq(_vec(basis, field), _vec([a], field)[:, 0], rcond=None)
    return sum(c * b for c, b in zip(coef, basis))


# ---------------------------------------------------------------------------
# generators


def cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def isometry(rng, m, r):
    q, _ = np.linalg.qr(cgauss(rng, m, r))
    return q


def with_sigma(rng, m, n, sigma):
    r = len(sigma)
    return (isometry(rng, m, r) * np.asarray(sigma)) @ isometry(rng, n, r).conj().T


def extreme_point(a, p, k):
    """One extreme subgradient of ||.||_(p,k) at a: top-k singular pairs, weighted."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    na = norm_of(s, p, k)
    w = (s[:k] / na) ** (p - 1.0)
    return (u[:, :k] * w) @ vh[:k, :]


def orthogonal_to(rng, g, m, n):
    """A random matrix b with tr(g* b) = 0."""
    b = cgauss(rng, m, n)
    return b - (np.vdot(g, b) / np.vdot(g, g)) * g


def lib_seed(seed, index):
    return (seed * 1000003 + index * 7919) % (2 ** 31)


# ---------------------------------------------------------------------------
# decide: norms, subdifferentials and orthogonality queries on one matrix

DECIDE_SHAPES = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (8, 8),
                 (3, 5), (6, 4), (2, 7), (8, 5), (4, 6), (7, 7)]
DECIDE_P = [2.0, 3.0, 4.0, 16.0]


def decide_slots():
    """24 fixed slots: a quarter tied across k, a quarter rank-deficient."""
    table = np.random.default_rng(20260).permutation(
        ["generic"] * 12 + ["tied"] * 6 + ["rankdef"] * 6)
    ks = np.random.default_rng(20261).integers(0, 1 << 30, size=24)
    slots = []
    for j in range(24):
        shape = DECIDE_SHAPES[j % len(DECIDE_SHAPES)]
        n0 = min(shape)
        kind = str(table[j])
        k = 1 + int(ks[j]) % (n0 - 1 if kind == "tied" else n0)
        slots.append((shape, DECIDE_P[j % len(DECIDE_P)], k, kind))
    return slots


@dataclass
class DecideCase:
    index: int
    a: np.ndarray
    p: float
    k: int
    kind: str
    x: np.ndarray          # direction for dir_derivative
    b_orth: np.ndarray     # tr(G0* b_orth) = 0 for an extreme point G0: orthogonal
    b_rand: np.ndarray
    b_par: np.ndarray      # check_parallel operand
    par_expected: bool
    basis: list            # subspace orthogonal to G0
    field: str
    eps: tuple
    seed: int


def decide_case(rng, index, slot, seed):
    (m, n), p, k, kind = slot
    n0 = min(m, n)
    if kind == "generic":
        a = cgauss(rng, m, n)
    else:
        sigma = np.sort(rng.uniform(0.3, 3.0, n0))[::-1]
        if kind == "tied":
            sigma[k] = sigma[k - 1]          # sigma_k = sigma_(k+1): the tie straddles k
        else:
            sigma[n0 - min(2, n0 - 1):] = 0.0  # one or two zero singular values
        a = with_sigma(rng, m, n, sigma)
    g0 = extreme_point(a, p, k)
    b_rand = cgauss(rng, m, n)
    par = index % 3 == 0
    dim = 1 + index % 2
    basis = [orthogonal_to(rng, g0, m, n) for _ in range(dim)]
    e1 = float(rng.uniform(0.02, 0.5))
    e2 = float(e1 + rng.uniform(0.0, 0.45))
    return DecideCase(index=index, a=a, p=p, k=k, kind=kind, x=cgauss(rng, m, n),
                      b_orth=orthogonal_to(rng, g0, m, n), b_rand=b_rand,
                      b_par=0.5 * a if par else b_rand, par_expected=par,
                      basis=basis, field="real" if index % 4 == 3 else "complex",
                      eps=(e1, e2), seed=lib_seed(seed, index))


def decide_ops(c, kf):
    a, p, k, seed = c.a, c.p, c.k, c.seed
    spec = kf.NormSpec.kyfan(p, k)
    sig = ref_sigma(a)
    na = norm_of(sig, p, k)
    e1, e2 = c.eps
    st = {}

    def f(z):
        return ref_norm(z, p, k)

    def check_dd(v):
        # convexity brackets the one-sided derivative by difference quotients
        t = 1e-4 * na / max(np.linalg.norm(c.x), 1e-300)
        up = (f(a + t * c.x) - na) / t
        down = (na - f(a - t * c.x)) / t
        tol = 1e-7 * f(c.x)
        return Outcome(down - tol <= v <= up + tol)

    def membership():
        st["g"] = kf.sample_extreme(kf.descriptor(a, p, k), seed=seed)
        return kf.membership(a, p, k, st["g"])

    def check_dual(v):
        pairing = float(np.real(np.vdot(st["g"], a)))
        return Outcome(abs(v - 1.0) <= 1e-8 and abs(pairing - na) <= 1e-8 * max(1.0, na))

    def check_refute(r):
        if r.orthogonal:
            return Outcome(True)
        lam = r.refuting_lambda
        return Outcome(lam is not None and f(a + lam * c.b_rand) < na)

    def eps_complex():
        st["c1"] = kf.check_eps_bj(a, c.b_rand, p, k, e1, mode="complex", seed=seed)
        return st["c1"]

    def check_parallel(r):
        rank_def = sig[k - 1] <= 1e-14 * sig[0]
        if r.parallel is None:
            return Outcome(bool(rank_def))
        if not r.parallel:
            return Outcome(not c.par_expected)
        nb = f(c.b_par)
        return Outcome(r.lam is not None
                       and abs(f(a + r.lam * c.b_par) - na - nb) <= 1e-8 * (na + nb))

    def certificate():
        st["sub"] = kf.MatrixSubspace(c.basis, field=c.field)
        st["cert"] = kf.subspace_certificate(a, st["sub"], p, k, max_iter=CERT_MAX_ITER)
        return st["cert"]

    def check_verify(r):
        # a certificate reported feasible must verify; a search that stopped
        # without one counts as uncertified in the op before
        return Outcome(bool(r[0]) or not st["cert"].feasible)

    return [
        Op("norms.norm", lambda: kf.norm(a, spec), lambda v: Outcome(close(v, na, 1e-10))),
        Op("subdiff.dir_derivative", lambda: kf.dir_derivative(a, c.x, p, k), check_dd),
        Op("subdiff.membership", membership, lambda v: Outcome(bool(v))),
        Op("norms.dual_norm", lambda: kf.dual_norm(st["g"], spec), check_dual),
        Op("ortho.check_bj", lambda: kf.check_bj(a, c.b_orth, p, k, seed=seed),
           lambda r: Outcome(bool(r.orthogonal))),
        Op("ortho.check_bj", lambda: kf.check_bj(a, c.b_rand, p, k, seed=seed), check_refute),
        Op("ortho.check_eps_bj", eps_complex, lambda r: Outcome(True)),
        # min |Re t| <= min |t| and e2 >= e1: a complex verdict at e1 forces the real one at e2
        Op("ortho.check_eps_bj",
           lambda: kf.check_eps_bj(a, c.b_rand, p, k, e2, mode="real", seed=seed),
           lambda r: Outcome(r.satisfied or not st["c1"].satisfied)),
        Op("ortho.check_parallel", lambda: kf.check_parallel(a, c.b_par, p, k, seed=seed),
           check_parallel),
        Op("ortho.subspace_certificate", certificate,
           lambda r: Outcome(True, certified=bool(r.feasible))),
        Op("ortho.verify_certificate",
           lambda: kf.verify_certificate(a, st["sub"], p, k, st["cert"], seed=seed),
           check_verify),
    ]


# ---------------------------------------------------------------------------
# approx: best approximation from a subspace, then its optimality certificate

# (m, n, dim, field, norm) with norm = (p, k); p None is spectral, k None Schatten
APPROX_SLOTS = [
    (2, 2, 1, "complex", (3.0, None)),
    (3, 3, 2, "complex", (None, 1)),
    (4, 4, 1, "real", (4.0, 2)),
    (5, 5, 3, "complex", (8.0, None)),
    (6, 6, 4, "real", (64.0, 3)),
    (4, 4, 4, "complex", (None, 1)),
    (6, 4, 2, "real", (64.0, None)),
    (3, 5, 1, "complex", (2.0, 2)),
    (5, 3, 3, "real", (None, 1)),
    (2, 3, 2, "real", (16.0, 1)),
    (4, 6, 2, "complex", (3.0, 3)),
    (6, 6, 1, "real", (2.0, None)),
]


@dataclass
class ApproxCase:
    index: int
    a: np.ndarray
    basis: list
    field: str
    norm: tuple
    seed: int


def approx_case(rng, index, slot, seed):
    m, n, dim, field, nrm = slot
    a = cgauss(rng, m, n)
    if field == "real":
        basis = [rng.standard_normal((m, n)) for _ in range(dim)]
    else:
        basis = [cgauss(rng, m, n) for _ in range(dim)]
    return ApproxCase(index=index, a=a, basis=basis, field=field, norm=nrm,
                      seed=lib_seed(seed, index))


def make_spec(kf, nrm):
    p, k = nrm
    if p is None:
        return kf.NormSpec.spectral()
    return kf.NormSpec.schatten(p) if k is None else kf.NormSpec.kyfan(p, k)


def approx_ops(c, kf, starts=APPROX_STARTS, iters=ITERS):
    spec = make_spec(kf, c.norm)
    p, k = c.norm
    ls_value = ref_norm(c.a - ls_projection(c.a, c.basis, c.field), p, k)

    def call():
        t0 = perf_counter()
        sub = kf.MatrixSubspace(c.basis, field=c.field)
        res = kf.best_approx(c.a, sub, spec, starts=starts, iters=iters, seed=c.seed)
        t1 = perf_counter()
        cert = kf.certify_best(c.a, sub, spec, res, seed=c.seed)
        op.parts["approx.best_approx"] = t1 - t0
        op.parts["approx.certify_best"] = perf_counter() - t1
        return res, cert

    def check(out):
        res, cert = out
        r = c.a - res.y
        value = ref_norm(r, p, k)
        ok = (close(res.value, value, 1e-9) and res.value <= ls_value * (1 + 1e-10)
              and np.allclose(res.residual, r, rtol=0, atol=1e-12 * max(1.0, value)))
        if cert.found:
            # a found certificate is a subgradient at R with zero projection on the subspace
            f = cert.f_matrix
            proj = ls_projection(f, c.basis, c.field)
            pairing = float(np.real(np.vdot(f, r)))
            ok = ok and np.linalg.norm(proj) <= 1e-6 and close(pairing, value, 1e-6)
        return Outcome(bool(ok), certified=bool(cert.found), converged=not res.flags)

    op = Op("approx.best_approx+certify_best", call, check)
    return [op]


# ---------------------------------------------------------------------------
# strict: strict spectral approximants, short p-sweeps and uniqueness probes

README_A = np.diag([3.0, 1.0, 0.0]).astype(complex)
README_SIGMA = np.array([1.5, 1.5, 0.5])

# (kind, n, dim, field); "known" is a unitarily rotated diagonal against span{I}
STRICT_SLOTS = [
    ("readme", 3, 1, "complex"),
    ("random", 2, 1, "complex"),
    ("probe", 3, 1, "complex"),
    ("known", 3, 1, "complex"),
    ("random", 3, 1, "real"),
    ("probe", 2, 1, "complex"),
    ("random", 2, 2, "complex"),
]


@dataclass
class StrictCase:
    index: int
    kind: str
    a: np.ndarray
    basis: list
    field: str
    sigma_known: np.ndarray | None
    pk: tuple               # (p, k) of a uniqueness probe
    seed: int


def strict_case(rng, index, slot, seed):
    kind, n, dim, field = slot
    known = None
    pk = (4.0, 2) if n > 2 else (3.0, 1)
    if kind == "readme":
        a, basis = README_A.copy(), [np.eye(3, dtype=complex)]
        known = README_SIGMA
    elif kind == "known":
        # A = U diag(d) U*, subspace span{I}: the strict approximant is c = (max d + min d)/2
        d = rng.uniform(-2.0, 2.0, n)
        u = isometry(rng, n, n)
        a = (u * d) @ u.conj().T
        basis = [np.eye(n, dtype=complex)]
        known = np.sort(np.abs(d - (d.max() + d.min()) / 2.0))[::-1]
    else:
        a = cgauss(rng, n, n)
        if field == "real":
            basis = [rng.standard_normal((n, n)) for _ in range(dim)]
        else:
            basis = [cgauss(rng, n, n) for _ in range(dim)]
    return StrictCase(index=index, kind=kind, a=a, basis=basis, field=field,
                      sigma_known=known, pk=pk, seed=lib_seed(seed, index))


def strict_ops(c, kf, starts=STRICT_STARTS, iters=STRICT_ITERS, grid=SWEEP_GRID):
    a = c.a
    if c.kind == "probe":
        p, k = c.pk
        x = c.basis[0]
        ls_value = ref_norm(a - ls_projection(a, [x], "complex"), p, k)
        return [Op("approx.unique_1d_probe",
                   lambda: kf.unique_1d_probe(a, x, p, k, seed=c.seed),
                   lambda r: Outcome(0.0 <= r.best_value <= ls_value * (1 + 1e-10)))]

    y_ls = ls_projection(a, c.basis, c.field)
    st = {}

    def solve():
        st["sub"] = kf.MatrixSubspace(c.basis, field=c.field)
        st["strict"] = kf.strict_spectral(a, st["sub"], starts=starts, iters=iters, seed=c.seed)
        return st["strict"]

    def check_strict(r):
        sig = ref_sigma(a - r.y)
        ok = (np.allclose(r.sigma, sig, rtol=0, atol=1e-9 * max(1.0, sig[0]))
              and sig[0] <= ref_sigma(a - y_ls)[0] + r.stage_tol)
        if c.sigma_known is not None:
            ok = ok and float(np.max(np.abs(sig - c.sigma_known))) <= 1e-6
        return Outcome(bool(ok), converged=not r.flags)

    def sweep():
        return kf.p_sweep(a, st["sub"], p_grid=grid, strict=st["strict"],
                          starts=starts, iters=iters, seed=c.seed)

    def check_sweep(records):
        ok = len(records) == len(grid)
        y_st = st["strict"].y
        for rec, p in zip(records, grid):
            r = a - st["sub"].combine(rec.coefficients)
            value = ref_norm(r, p, None)
            # Y_p minimizes the Schatten-p norm: no worse than the strict or LS point
            bound = min(ref_norm(a - y_st, p, None), ref_norm(a - y_ls, p, None))
            ok = ok and close(rec.value_p, value, 1e-9) and value <= bound * (1 + 1e-9)
        return Outcome(bool(ok), converged=all(not rec.flags for rec in records))

    return [Op("approx.strict_spectral", solve, check_strict),
            Op("lab.p_sweep", sweep, check_sweep)]


def counterexample_op(kf, seed, starts=STARTS, iters=ITERS, p_list=(2.0, 4.0, 8.0, 16.0)):
    return Op("lab.counterexample_run",
              lambda: kf.counterexample_run(p_list=p_list, starts=starts, iters=iters,
                                            seed=lib_seed(seed, 999)),
              lambda r: Outcome(bool(r.hypothetical_excluded)))


# ---------------------------------------------------------------------------
# plans


@dataclass
class Plan:
    """Generated inputs of one run plus the settings its operations use."""

    workload: str
    seed: int
    cases: list
    per_cycle: int          # cases in one pass over the slot table
    tiny: bool

    def ops(self, kf, case):
        if self.workload == "decide":
            return decide_ops(case, kf)
        if self.workload == "approx":
            if self.tiny:
                return approx_ops(case, kf, starts=2, iters=20)
            return approx_ops(case, kf)
        if self.tiny:
            return strict_ops(case, kf, starts=2, iters=20, grid=[2.0])
        return strict_ops(case, kf)

    def cycle_ops(self, kf, cycle):
        """Operations of one pass over the slot table; passes past the generated
        cases reuse them from the start."""
        start = cycle * self.per_cycle % len(self.cases)
        return [op for case in self.cases[start:start + self.per_cycle]
                for op in self.ops(kf, case)]

    def trace_ops(self, kf):
        """The fixed operation list of a traced run: the first pass over the slot table."""
        ops = self.cycle_ops(kf, 0)
        if self.workload == "strict":
            if self.tiny:
                ops.append(counterexample_op(kf, self.seed, starts=2, iters=20, p_list=(2.0,)))
            else:
                ops.append(counterexample_op(kf, self.seed))
        return ops


def make_plan(workload, seed, tiny=False):
    """Generate the inputs of a run; identical for identical (workload, seed, tiny)."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "decide":
        slots = decide_slots()
        if tiny:
            slots = [s for s in slots if max(s[0]) <= 3]
        make, cycles = decide_case, 12
    elif workload == "approx":
        slots = [s for s in APPROX_SLOTS if not tiny or max(s[:2]) <= 2]
        make, cycles = approx_case, 10
    else:
        slots = [s for s in STRICT_SLOTS if not tiny or s[1] <= 2]
        make, cycles = strict_case, 6
    if tiny:
        cycles = 2
    cases = [make(rng, i, slots[i % len(slots)], seed) for i in range(cycles * len(slots))]
    return Plan(workload=workload, seed=seed, cases=cases, per_cycle=len(slots), tiny=tiny)
