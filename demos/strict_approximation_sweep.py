"""Strict spectral approximation and the p -> infinity sweep.

Reproduces the two worked cases end to end: the Chebyshev-style instance
A = diag(3,1,0) over span{I}, where the Schatten-p approximants converge to
the strict approximant, and the fixed counterexample instance, where the
hypothetical convergence pattern for the (p,2) norms is excluded.
"""

import numpy as np

from kyfan.core import MatrixSubspace
from kyfan.approx import best_approx, certify_best, strict_spectral
from kyfan.lab import convergence_checks, counterexample_run, default_p_grid, p_sweep
from kyfan.norms import NormSpec
from kyfan.ortho import verify_certificate


def main():
    a = np.diag([3.0, 1.0, 0.0]).astype(complex)
    sub = MatrixSubspace([np.eye(3)], field="complex")

    st = strict_spectral(a, sub, starts=10, seed=0)
    print("A = diag(3,1,0), M = span{I}")
    print("strict approximant: alpha = %.9f, residual spectrum %s"
          % (np.real(st.coefficients[0]) / np.sqrt(3.0), np.round(st.sigma, 6)))

    recs = p_sweep(a, sub, default_p_grid(256.0), strict=st, starts=8)
    print("\n   p      alpha        ||R_p||_p   sigma_1    dist to strict")
    for r in recs:
        print("%6g   %.7f   %.6f   %.6f   %.2e"
              % (r.p, np.real(r.coefficients[0]) / np.sqrt(3.0),
                 r.value_p, r.value_inf, r.dist_to_strict))
    rep = convergence_checks(recs, st)
    for c in rep.checks:
        print("sigma_%d: gap %.2e, verdict %s" % (c.index, c.gap, c.verdict))

    # a certified best approximation at one p
    res = best_approx(a, sub, NormSpec.kyfan(2, 2), starts=10, seed=0)
    cert = certify_best(a, sub, NormSpec.kyfan(2, 2), res)
    verified = verify_certificate(res.residual, sub, 2, 2, cert, tol=1e-7)[0]
    print("\nbest (2,2) approximation: value %.6f, certificate found = %s "
          "(residual %.2e, %d atoms), verified = %s"
          % (res.value, cert.feasible, cert.residual_perp, cert.atoms_used, verified))

    print("\ncounterexample instance A = diag(1/2, 2, 0), M = span{diag(0,1,1)}:")
    rep = counterexample_run(p_list=(2.0, 4.0, 8.0, 16.0), starts=8)
    print("strict residual spectrum:", np.round(rep.strict.sigma, 6))
    for e in rep.chain:
        print("p = %4g: sigma(R_p) = %s, sigma_3 comparison holds = %s"
              % (e.p, np.round(e.sigma_p, 6), e.sigma3_conclusion))
    print("uniqueness spreads:",
          ["%.1e" % probe.spread for _, probe in rep.uniqueness])
    print("hypothetical pattern excluded:", rep.hypothetical_excluded)


if __name__ == "__main__":
    main()
