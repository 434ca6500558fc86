"""Counts and times of single calls, for comparison with the ROADMAP baseline.

    python3 perfbench/crosscheck.py [--seed N]

Runs dual_norm on a 6x6 matrix, check_bj on a 4x4 pair and best_approx
(starts=6) on a 3x3 problem with a dim-2 complex subspace, each once
untraced for time and once traced for counts.  SVD counts do not depend on
the machine.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import run  # pins BLAS threads before numpy is imported
import workloads
from tracer import Tracer


def cases(kf, seed):
    import numpy as np

    rng = np.random.default_rng([seed, 99])
    a6 = workloads.cgauss(rng, 6, 6)
    a4, b4 = workloads.cgauss(rng, 4, 4), workloads.cgauss(rng, 4, 4)
    a3 = workloads.cgauss(rng, 3, 3)
    sub = kf.MatrixSubspace([workloads.cgauss(rng, 3, 3) for _ in range(2)], field="complex")
    spec = kf.NormSpec.kyfan(3.0, 3)
    return {
        "dual_norm 6x6 kyfan(3,3)": lambda: kf.dual_norm(a6, spec),
        "check_bj 4x4 p=4 k=2": lambda: kf.check_bj(a4, b4, 4.0, 2),
        "best_approx 3x3 dim-2 complex spectral starts=6":
            lambda: kf.best_approx(a3, sub, kf.NormSpec.spectral(), starts=6),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    kf = run.load_kyfan()
    report = {}
    for name, call in cases(kf, args.seed).items():
        call()  # first-call costs stay out of the timing
        t0 = perf_counter()
        call()
        seconds = perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        try:
            tracer.armed = True
            tracer.span("bench.op", call)
        finally:
            tracer.armed = False
            tracer.uninstall()
        spans = tracer.summary()
        report[name] = {
            "ms": round(1e3 * seconds, 3),
            "svd_calls": spans.get("linalg.svd", [0])[0],
            "svd_matrices": tracer.counts["linalg.svd_matrices"],
            "objective_evals": tracer.counts["solvers.objective_evals"],
            "grid_points": tracer.counts["solvers.grid_refine.points"],
            "self_ms": {k: round(1e3 * v[1], 3) for k, v in sorted(spans.items())
                        if v[1] >= 1e-4},
        }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
