"""Spans and counters recorded from outside the library.

The tracer replaces public functions and named phases of kyfan, the numpy
LAPACK entry points and scipy's ``minimize`` with timing wrappers at every
binding site (every ``kyfan.*`` module attribute that holds the original),
and puts the originals back on ``uninstall``.  It records only while
``armed`` so that input generation and output re-checks never count.

Spans are kept in memory as parallel arrays (name, parent, operation, start,
duration, time covered by children) and written out once at the end.  A
target that cannot be found is listed in ``absent`` instead of raising, so a
later change that deletes a phase leaves the benchmark running.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute path); the layer is the part before the first dot
KYFAN_TARGETS = [
    ("norms.norm", "kyfan.norms", "norm"),
    ("norms.dual_norm", "kyfan.norms", "dual_norm"),
    ("subdiff.descriptor", "kyfan.subdiff", "descriptor"),
    ("subdiff.sample_extreme", "kyfan.subdiff", "sample_extreme"),
    ("subdiff.canonical_extreme", "kyfan.subdiff", "canonical_extreme"),
    ("subdiff.dir_derivative", "kyfan.subdiff", "dir_derivative"),
    ("subdiff.membership", "kyfan.subdiff", "membership"),
    ("ortho.inner_range", "kyfan.ortho", "inner_range"),
    ("ortho.check_bj", "kyfan.ortho", "check_bj"),
    ("ortho.check_eps_bj", "kyfan.ortho", "check_eps_bj"),
    ("ortho.check_parallel", "kyfan.ortho", "check_parallel"),
    ("ortho.subspace_certificate", "kyfan.ortho", "subspace_certificate"),
    ("ortho.verify_certificate", "kyfan.ortho", "verify_certificate"),
    ("solvers.Objective.value", "kyfan.solvers", "Objective.value"),
    ("solvers.Objective.value_many", "kyfan.solvers", "Objective.value_many"),
    ("solvers.Objective.subgrad", "kyfan.solvers", "Objective.subgrad"),
    ("solvers.multistart_minimize", "kyfan.solvers", "multistart_minimize"),
    ("solvers.polyak_descent", "kyfan.solvers", "polyak_descent"),
    ("solvers.polish", "kyfan.solvers", "polish"),
    ("solvers.grid_refine", "kyfan.solvers", "grid_refine"),
    ("approx.best_approx", "kyfan.approx", "best_approx"),
    ("approx.certify_best", "kyfan.approx", "certify_best"),
    ("approx.unique_1d_probe", "kyfan.approx", "unique_1d_probe"),
    ("approx.strict_spectral", "kyfan.approx", "strict_spectral"),
    ("approx._solve_stage", "kyfan.approx", "_solve_stage"),
    ("approx._tighten_final", "kyfan.approx", "_tighten_final"),
    ("lab.p_sweep", "kyfan.lab", "p_sweep"),
    ("lab.counterexample_run", "kyfan.lab", "counterexample_run"),
]

# the numpy/scipy boundary: patched on the owning module and wherever kyfan binds it
BOUNDARY_TARGETS = [
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.qr", "numpy.linalg", "qr"),
    ("linalg.pinv", "numpy.linalg", "pinv"),
    ("scipy.minimize", "scipy.optimize", "minimize"),
]

MINIMIZE_METHODS = {"bfgs": "bfgs", "nelder-mead": "nelder_mead", "slsqp": "slsqp"}


def _resolve(module, path):
    """(owner, attribute name, original) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


def _field(obj, name):
    # result fields read for counts; a field a later version drops counts nothing
    value = getattr(obj, name, None)
    return value if isinstance(value, (int, float)) else 0


class Tracer:
    """In-memory span recorder with patch/unpatch of the targets above."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.duration = array("d")
        self.covered = array("d")
        self.counts = Counter()
        self.absent = []
        self.armed = False
        self.current_op = -1
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.duration.append(0.0)
        self.covered.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, t1):
        self._stack.pop()
        self.start[sid] = t0
        self.duration[sid] = t1 - t0
        if self._stack:
            self.covered[self._stack[-1]] += t1 - t0

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span; used by the benchmark for its operation roots."""
        sid = self._open(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, t0, perf_counter())

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = tracer._open(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, t0, perf_counter())
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- counters read at the boundaries ------------------------------------

    def _hooks(self, name):
        c = self.counts

        def count_svd_matrices(args, kwargs, out):
            a = args[0] if args else kwargs.get("a")
            shape = getattr(a, "shape", ())
            stack = 1
            for dim in shape[:-2]:
                stack *= int(dim)
            c["linalg.svd_matrices"] += stack

        def count_minimize(args, kwargs, out):
            method = str(kwargs.get("method") or (args[3] if len(args) > 3 else "")).lower()
            c["scipy.minimize.%s_calls" % MINIMIZE_METHODS.get(method, "other")] += 1
            c["scipy.minimize.nfev"] += _field(out, "nfev")

        def count_value(args, kwargs, out):
            c["solvers.objective_evals"] += 1

        def count_value_many(args, kwargs, out):
            xs = args[1] if len(args) > 1 else kwargs.get("xs")
            c["solvers.objective_evals"] += len(xs)

        def count_grid_points(args, kwargs):
            # wrap the batch evaluator so every grid point is counted, whatever
            # objective the caller passes (Objective.value_many or a stage closure)
            fun_many = args[0] if args else kwargs.pop("fun_many")

            def counted(xs):
                c["solvers.grid_refine.points"] += len(xs)
                return fun_many(xs)

            return (counted,) + tuple(args[1:]), kwargs

        def count_iterations(args, kwargs, out):
            c["ortho.subspace_certificate.iterations"] += _field(out, "iterations")

        def count_atoms(args, kwargs, out):
            c["approx.certify_best.atoms_used"] += _field(out, "atoms_used")

        def count_rounds(args, kwargs, out):
            for stage in getattr(out, "stage_log", None) or []:
                c["approx.strict.penalty_rounds"] += _field(stage, "rounds")

        table = {
            "linalg.svd": (None, count_svd_matrices),
            "scipy.minimize": (None, count_minimize),
            "solvers.Objective.value": (None, count_value),
            "solvers.Objective.value_many": (None, count_value_many),
            "solvers.grid_refine": (count_grid_points, None),
            "ortho.subspace_certificate": (None, count_iterations),
            "approx.certify_best": (None, count_atoms),
            "approx.strict_spectral": (None, count_rounds),
        }
        return table.get(name, (None, None))

    # -- patching --------------------------------------------------------------

    def install(self):
        """Patch every target at its owner and at every kyfan binding site."""
        sites = [m for n, m in sorted(sys.modules.items())
                 if (n == "kyfan" or n.startswith("kyfan.")) and m is not None]
        for name, module, path in KYFAN_TARGETS + BOUNDARY_TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, *self._hooks(name))
            owners = [owner] + [m for m in sites if m is not owner]
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per span name: [calls, self seconds]."""
        out = {}
        for i in range(len(self.name_id)):
            rec = out.setdefault(self.names[self.name_id[i]], [0, 0.0])
            rec[0] += 1
            rec[1] += self.duration[i] - self.covered[i]
        return out

    def write(self, path):
        """Write spans as gzipped CSV: id, parent, op, name, start_us, duration_us, self_us."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start_us,duration_us,self_us\n")
            t_origin = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name_id)):
                fh.write("%d,%d,%d,%s,%.1f,%.2f,%.2f\n" % (
                    i, self.parent[i], self.op[i], self.names[self.name_id[i]],
                    (self.start[i] - t_origin) * 1e6, self.duration[i] * 1e6,
                    (self.duration[i] - self.covered[i]) * 1e6))
