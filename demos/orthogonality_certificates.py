"""Birkhoff-James orthogonality checks and density-matrix certificates.

Decides orthogonality of a matrix to another matrix and to a whole subspace,
shows the approximate (epsilon) variant, and verifies the subspace certificate
from scratch.
"""

import numpy as np

from kyfan.core import MatrixSubspace
from kyfan.norms import NormSpec, norm
from kyfan.ortho import (
    check_bj,
    check_eps_bj,
    check_parallel,
    subspace_certificate,
    verify_certificate,
)


def main():
    p, k = 2.0, 1
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    res = check_bj(a, b, p, k)
    print("diag(1,0) vs E21 under the spectral norm: orthogonal =", res.orthogonal)

    res = check_bj(np.eye(2), np.eye(2), p, k)
    lam = complex(res.refuting_lambda)
    print("I vs I: orthogonal = %s, ||I + lambda I|| drops to %.6f at lambda = "
          "%.3f%+.3fi" % (res.orthogonal, res.refuting_norm, lam.real, lam.imag))

    b = np.array([[0.5, 0.0], [1.0, 0.0]], dtype=complex)
    for eps in (0.0, 0.3, 0.6, 0.9):
        e = check_eps_bj(np.diag([1.0, 0.0]), b, p, k, eps)
        print("eps = %.1f: approximately orthogonal = %s (attained %.3f, threshold %.3f)"
              % (eps, e.satisfied, e.attained, e.threshold))

    par = check_parallel(np.diag([3.0, 1.0]), (1 + 1j) * np.diag([3.0, 1.0]), p, k)
    print("A vs (1+i)A: parallel = %s with lambda = %.3f%+.3fi"
          % (par.parallel, par.lam.real, par.lam.imag))

    # subspace case: residual of the skewed-diagonal example is orthogonal to
    # span{diag(0,1,1)} and the certificate is a pair of density matrices
    a = np.diag([0.5, 1.0, -1.0]).astype(complex)
    sub = MatrixSubspace([np.diag([0.0, 1.0, 1.0])], field="complex")
    cert = subspace_certificate(a, sub, p=2.0, k=1)
    print("\ncertificate for diag(0.5, 1, -1) vs span{diag(0,1,1)}, spectral norm:")
    print("  feasible =", cert.feasible)
    print("  T_1 =\n", np.round(cert.T_list[0].real, 6))
    ok, rep = verify_certificate(a, sub, 2.0, 1, cert)
    print("  residual_perp %.2e, residual_eig %.2e, dual norm %.12f"
          % (cert.residual_perp, rep["residual_eig"], rep["dual_norm_bound"]))
    print("  independent verification:", ok,
          "(pairing Re tr(G* A) = %.12f)" % rep["pairing"])
    print("  norm of A:", norm(a, NormSpec.spectral()))


if __name__ == "__main__":
    main()
