"""Benchmark of the kyfan package: one workload, one caller, closed loop.

    python3 perfbench/run.py --workload decide|approx|strict --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; kyfan is imported from ./src.
--trace 0 measures the end-to-end metrics: operations are issued one after
another in whole passes over the workload's slot table, as many passes as
fit in S seconds judged by the first (at least one), and set-up time is the
median of several fresh processes that import kyfan and generate the
inputs.  Every timing is scaled to a nominal host speed measured between
operations (hostspeed.py); the raw figures go to the info line.  --trace 1 runs one fixed cycle of the workload twice, untraced and
then traced, and reports the per-layer metrics; spans go to
.perfbench_out/.  Every output is re-checked; the last line of stdout is
the JSON result, the line before it machine and run information.
See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import os

# one BLAS thread for this process and the set-up probes it starts; this must
# happen before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from hostspeed import NEAREST, HostMeter  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 5
# latency percentile reported as op_tail_ms, chosen per workload so that a run
# of the configured length has about ten operations beyond it
TAIL_PERCENTILE = {"decide": 99.0, "approx": 75.0, "strict": 60.0}

P50_KINDS = [
    "norms.dual_norm", "subdiff.dir_derivative", "subdiff.membership",
    "ortho.check_bj", "ortho.check_eps_bj", "ortho.check_parallel",
    "ortho.subspace_certificate", "ortho.verify_certificate",
    "approx.best_approx", "approx.certify_best", "approx.strict_spectral",
    "approx.unique_1d_probe", "lab.p_sweep",
]
CALL_SPANS = [
    "norms.norm", "norms.dual_norm", "subdiff.descriptor", "ortho.inner_range",
    "solvers.polyak_descent", "solvers.polish", "solvers.grid_refine",
]
SELF_SPANS = CALL_SPANS + ["ortho.check_bj"]
LAYERS = ["norms", "subdiff", "ortho", "solvers", "approx", "lab", "linalg", "scipy"]
COUNTS = [
    "linalg.svd_matrices", "scipy.minimize.bfgs_calls",
    "scipy.minimize.nelder_mead_calls", "scipy.minimize.slsqp_calls",
    "scipy.minimize.nfev", "solvers.objective_evals", "solvers.grid_refine.points",
    "ortho.subspace_certificate.iterations", "approx.certify_best.atoms_used",
    "approx.strict.penalty_rounds",
]


def load_kyfan():
    """Import kyfan from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "kyfan" / "__init__.py").is_file():
        raise SystemExit("perfbench: %s/kyfan not found; run from a kyfan source checkout" % src)
    sys.path.insert(0, str(src))
    kf = importlib.import_module("kyfan")
    if Path(kf.__file__).resolve().parent != (src / "kyfan").resolve():
        raise SystemExit("perfbench: imported kyfan from %s, not from %s" % (kf.__file__, src))
    return kf


def machine_info(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": int(BLAS_THREADS),
    }


def run_op(op):
    """Time one operation; (seconds, result, error)."""
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a raising operation is a failed one, never the end of the run
        return perf_counter() - t0, None, exc
    return perf_counter() - t0, result, None


def judge(op, result, error, tally):
    """Re-check one result and fold it into the tally."""
    if error is None:
        try:
            out = op.check(result)
        except Exception as exc:
            out, error = workloads.Outcome(False), exc
    else:
        out = workloads.Outcome(False)
    tally["attempted"] += 1
    if not out.ok:
        tally["failed"] += 1
        tally["failed:" + op.kind] += 1
        if error is not None:
            tally["error:%s:%s" % (op.kind, type(error).__name__)] += 1
            if tally["tracebacks"] < 3:
                tally["tracebacks"] += 1
                traceback.print_exception(error, file=sys.stderr)
    if out.certified is False:
        tally["uncertified"] += 1
    if out.converged is False:
        tally["unconverged"] += 1


def warm_up(kf, workload, seed):
    """One tiny case, so lazy imports and first-call costs stay out of the timing."""
    plan = workloads.make_plan(workload, seed, tiny=True)
    for op in plan.ops(kf, plan.cases[0]):
        run_op(op)


def measure_setup(args):
    """Median wall time of fresh processes that import kyfan and generate the
    inputs, each scaled by the host speed measured just before and after it;
    (adjusted median, raw times)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    meter = HostMeter()
    times, mids = [], []
    for _ in range(SETUP_PROBES):
        meter.sample(NEAREST)
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError("set-up probe failed (exit %s, %r)" % (code, line))
        times.append(elapsed)
        mids.append(t0 + 0.5 * elapsed)
    meter.sample(NEAREST)
    return float(np.median(np.asarray(times) * meter.factors(mids))), times


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def timed(ops, meter, call=run_op):
    """Run ops one after another with host-speed bursts between them;
    (raw latencies, adjusted latencies, results, errors)."""
    meter.sample(NEAREST)
    raw, mids, results, errors = [], [], [], []
    for op in ops:
        t0 = perf_counter()
        dt, result, error = call(op)
        raw.append(dt)
        mids.append(t0 + 0.5 * dt)
        results.append(result)
        errors.append(error)
        meter.after_op(dt)
    meter.sample(NEAREST)
    raw = np.asarray(raw)
    return raw, raw * meter.factors(mids), results, errors


def end_to_end(args, kf, plan, info):
    setup_s, setup_runs = measure_setup(args)
    warm_up(kf, args.workload, args.seed)
    tally = Counter()
    meter = HostMeter()
    raw, adjusted = [], []
    # whole passes keep the mix of every run the same, whatever its speed
    cycles, cycle = 1, 0
    while cycle < cycles:
        ops = plan.cycle_ops(kf, cycle)
        r, a, results, errors = timed(ops, meter)
        for op, result, error in zip(ops, results, errors):
            judge(op, result, error, tally)
        raw.extend(r)
        adjusted.extend(a)
        if cycle == 0:
            cycles = max(1, round(args.seconds / r.sum()))
        cycle += 1
    n = tally["attempted"]
    pct = TAIL_PERCENTILE[args.workload]
    info.update(setup_runs_s=setup_runs, busy_s=sum(raw), cycles=cycles, samples=n,
                tail_percentile=pct,
                beyond_tail=int(np.sum(np.asarray(adjusted) > np.percentile(adjusted, pct))),
                host_speed=meter.speed(), bursts=len(meter.bursts),
                raw={"ops_per_s": n / sum(raw), "op_p50_ms": 1e3 * np.percentile(raw, 50),
                     "op_tail_ms": 1e3 * np.percentile(raw, pct),
                     "setup_s": statistics.median(setup_runs)},
                failures={k: v for k, v in tally.items() if ":" in k})
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(n / sum(adjusted), "ops/s"),
        "op_p50_ms": metric(1e3 * np.percentile(adjusted, 50), "ms"),
        "op_tail_ms": metric(1e3 * np.percentile(adjusted, pct), "ms"),
        "ok_ratio": metric(1.0 - tally["failed"] / n, "ratio"),
        "certified_ratio": metric(1.0 - tally["uncertified"] / n, "ratio"),
        "converged_ratio": metric(1.0 - tally["unconverged"] / n, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return tally, metrics


def per_layer(args, kf, plan, info):
    warm_up(kf, args.workload, args.seed)

    meter = HostMeter()
    # untraced pass: latencies per public function, and the time to compare
    tally = Counter()
    by_kind = {}
    ops = plan.trace_ops(kf)
    raw, adjusted, results, errors = timed(ops, meter)
    for op, dt, factor, result, error in zip(ops, adjusted, adjusted / raw, results, errors):
        by_kind.setdefault(op.kind, []).append(dt)
        for kind, seconds in op.parts.items():
            by_kind.setdefault(kind, []).append(seconds * factor)
        judge(op, result, error, tally)

    # traced pass over the same operations
    tracer = Tracer()
    ops = plan.trace_ops(kf)

    def traced_call(op):
        tracer.current_op += 1
        tracer.armed = True
        t0 = perf_counter()
        try:
            result, error = tracer.span("bench.op", op.call), None
        except Exception as exc:
            result, error = None, exc
        dt = perf_counter() - t0
        tracer.armed = False
        return dt, result, error

    tracer.install()
    try:
        traced_raw, traced, results, errors = timed(ops, meter, traced_call)
    finally:
        tracer.armed = False
        tracer.uninstall()
    for op, result, error in zip(ops, results, errors):
        judge(op, result, error, tally)

    n = len(ops)
    spans = tracer.summary()
    # self times are scaled to the nominal host speed like every other time
    scale = traced.sum() / traced_raw.sum()

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_ms(names):
        return 1e3 * scale * sum(spans.get(s, (0, 0.0))[1] for s in names) / n

    m = {}
    for name in CALL_SPANS:
        m[name + ".calls"] = metric(calls(name) / n, "count")
    for name in SELF_SPANS:
        m[name + ".self_ms"] = metric(self_ms([name]), "ms")
    for layer in LAYERS + ["bench"]:
        m[layer + ".self_ms"] = metric(self_ms([s for s in spans if s.split(".")[0] == layer]), "ms")
    m["linalg.svd_calls"] = metric(calls("linalg.svd") / n, "count")
    m["linalg.eig_calls"] = metric((calls("linalg.eigh") + calls("linalg.eigvalsh")) / n, "count")
    m["linalg.qr_calls"] = metric(calls("linalg.qr") / n, "count")
    m["linalg.pinv_calls"] = metric(calls("linalg.pinv") / n, "count")
    m["solvers.subgrad_calls"] = metric(calls("solvers.Objective.subgrad") / n, "count")
    for name in COUNTS:
        m[name] = metric(tracer.counts[name] / n, "count")
    m["approx.best_approx.self_ms"] = metric(self_ms(["approx.best_approx"]), "ms")
    m["approx.certify_best.self_ms"] = metric(self_ms(["approx.certify_best"]), "ms")
    m["approx.strict.stage_self_ms"] = metric(self_ms(["approx._solve_stage"]), "ms")
    m["approx.strict.tighten_self_ms"] = metric(self_ms(["approx._tighten_final"]), "ms")
    m["lab.p_sweep.self_ms"] = metric(self_ms(["lab.p_sweep"]), "ms")
    for kind in P50_KINDS:
        runs = by_kind.get(kind, [])
        m[kind + ".p50_ms"] = metric(1e3 * statistics.median(runs) if runs else 0.0, "ms")
    m["lab.counterexample_run.s"] = metric(sum(by_kind.get("lab.counterexample_run", [])), "s")
    m["trace.overhead_ratio"] = metric(traced.sum() / adjusted.sum(), "ratio")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("spans-%s-%d%s.csv.gz" % (args.workload, args.seed, "-tiny" if args.tiny else ""))
    tracer.write(path)
    info.update(ops=n, untraced_s=float(raw.sum()), traced_s=float(traced_raw.sum()),
                host_speed=meter.speed(), spans=len(tracer.name_id),
                spans_file=str(path.relative_to(ROOT)), absent=tracer.absent,
                not_exercised=sorted(k for k in P50_KINDS if k not in by_kind),
                failures={k: v for k, v in tally.items() if ":" in k})
    return tally, m


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small instances and solver settings, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    kf = load_kyfan()
    plan = workloads.make_plan(args.workload, args.seed, tiny=args.tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    info = machine_info(args)
    if args.trace:
        tally, metrics = per_layer(args, kf, plan, info)
    else:
        tally, metrics = end_to_end(args, kf, plan, info)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
