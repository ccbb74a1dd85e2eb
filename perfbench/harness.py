"""Timing, tracing, verification and reporting shared by every workload.

A workload module supplies seeded inputs and a list of cases; this module
imports the library from the checkout's ``src/``, binds the library calls
the cases make (optionally wrapped in trace spans), times and verifies
cases pass by pass, calibrates for the machine's current speed, and
records the environment.  ``run.py`` puts these together.  The library is
only ever called with generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
MODULES = ("groupoids", "matrices", "groups", "series", "paths", "cells",
           "measures", "nonregular")

# Every library call the cases make through ``api``: metric name, module,
# attribute path inside the module.  The metric name is also the span name;
# ``api.<module>.<rest with dots as underscores>`` is the bound callable.
LAYER_CALLS = (
    ("groupoids.axiom_violations", "groupoids", "axiom_violations"),
    ("matrices.inverse", "matrices", "RationalMatrix.inverse"),
    ("matrices.mul", "matrices", "RationalMatrix.__mul__"),
    ("series.exp", "series", "FormalSeries.exp"),
    ("series.log", "series", "FormalSeries.log"),
    ("series.inverse", "series", "FormalSeries.inverse"),
    ("series.mul", "series", "FormalSeries.__mul__"),
    ("series.add", "series", "FormalSeries.__add__"),
    ("series.SemidirectElement.mul", "series", "SemidirectElement.__mul__"),
    ("series.SemidirectElement.inverse", "series", "SemidirectElement.inverse"),
    ("paths.solve_left_ode", "paths", "solve_left_ode"),
    ("paths.left_log_derivative", "paths", "left_log_derivative"),
    ("paths.iterated_integrals", "paths", "iterated_integrals"),
    ("paths.grade_component", "paths", "grade_component"),
    ("paths.AlgebraPath.call", "paths", "AlgebraPath.__call__"),
    ("paths.convergence_table", "paths", "convergence_table"),
    ("paths.error_ratios", "paths", "error_ratios"),
    ("groups.convolve", "groups", "convolve"),
    ("measures.density", "measures", "SemigroupDensity"),
    ("measures.density.q", "measures", "SemigroupDensity.q"),
    ("measures.semigroup_axiom_residuals", "measures", "semigroup_axiom_residuals"),
    ("measures.measure_series", "measures", "measure_series"),
    ("measures.measure_series_multiplicativity", "measures",
     "measure_series_multiplicativity"),
    ("measures.construct", "measures", "ComplexMeasure"),
    ("measures.markov_check", "measures", "markov_check"),
    ("measures.factorization_check", "measures", "factorization_check"),
    ("measures.reorder_max_difference", "measures", "reorder_max_difference"),
    ("measures.cut", "measures", "cut"),
    ("measures.paste", "measures", "paste"),
    ("measures.border_reduce", "measures", "border_reduce"),
    ("measures.is_complex_for_cobordism", "measures", "is_complex_for_cobordism"),
    ("cells.boundary_word", "cells", "boundary_word"),
    ("cells.dimension_extend", "cells", "dimension_extend"),
    ("cells.extend_abelian", "cells", "extend_abelian"),
    ("cells.extend_nonabelian", "cells", "extend_nonabelian"),
    ("cells.is_regular", "cells", "is_regular"),
    ("cells.is_saturated", "cells", "is_saturated"),
    ("cells.Cosurface", "cells", "Cosurface"),
    ("cells.Cosurface.evaluate_word", "cells", "Cosurface.evaluate_word"),
    ("nonregular.full_report", "nonregular", "full_report"),
    ("nonregular.check_membership", "nonregular", "check_membership"),
)

# Work counts computed from input sizes (never measured); each case
# declares its share, and a pass reports the sum.
WORK_COUNTS = (
    "series.coeffs_out", "paths.euler_factors", "measures.config_space",
    "cells.word_cells_scanned", "cells.box_pairs", "nonregular.grid_points",
    "nonregular.bytes_computed",
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no library sources)."""


# ---------------------------------------------------------------------------
# library import
# ---------------------------------------------------------------------------

def import_library():
    """Import (or re-import) ``cobordseries`` from the checkout's ``src/``.

    Earlier imports are dropped first, so each call re-executes the
    library's module code; the returned namespace holds the fresh modules.
    """
    if not (SRC / "cobordseries" / "__init__.py").is_file():
        raise BenchError(f"library sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "cobordseries" or n.startswith("cobordseries.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("cobordseries")
    if Path(pkg.__file__).resolve().parent != (SRC / "cobordseries").resolve():
        raise BenchError(f"imported cobordseries from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"cobordseries.{m}")
                              for m in MODULES})


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def bind(lib, tracer=None):
    """Namespace of the library calls the cases make, traced when asked."""
    api = SimpleNamespace(lib=lib)
    for metric, mod, path in LAYER_CALLS:
        fn = _resolve(getattr(lib, mod), path)
        if tracer is not None:
            fn = tracer.wrap(metric, fn)
        ns = getattr(api, mod, None)
        if ns is None:
            ns = SimpleNamespace()
            setattr(api, mod, ns)
        setattr(ns, metric[len(mod) + 1:].replace(".", "_"), fn)
    return api


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: (name, start, end, parent index, case id)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._case = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._case])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def begin_case(self, case_id):
        self._case = case_id
        self._open("case")

    def end_case(self):
        self._close()
        self._case = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    def summary(self):
        """Busy and self seconds and call counts per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """A case's verdict plus the outputs the reference gate compares:
    ``exact`` is a canonical text of exact outputs (compared by digest),
    ``floats`` maps a name to (value, absolute tolerance)."""

    ok: bool
    exact: str = ""
    floats: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class Case:
    """One verification: ``run(api)`` is timed, ``check(out)`` is not."""

    id: str
    run: object
    check: object
    counts: dict = field(default_factory=dict)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def reference_path(workload):
    return BENCH_DIR / "reference" / f"{workload}.json"


def load_reference(workload):
    with open(reference_path(workload)) as fh:
        return json.load(fh)["cases"]


def reference_record(outcome):
    return {"ok": outcome.ok, "digest": digest(outcome.exact),
            "floats": {k: [v, tol] for k, (v, tol) in outcome.floats.items()}}


def reference_mismatch(ref, outcome):
    """Why the outcome disagrees with its reference record, or ''."""
    if ref is None:
        return "no reference record"
    if ref["ok"] != outcome.ok:
        return "verdict differs from the reference"
    if ref["digest"] != digest(outcome.exact):
        return "exact outputs differ from the reference"
    for name, (value, _) in ref["floats"].items():
        if name not in outcome.floats:
            return f"float output {name} missing"
        got, tol = outcome.floats[name]
        if not abs(got - value) <= tol:
            return f"float output {name}={got!r} is off the reference {value!r}"
    return ""


def execute(case, api, tracer=None):
    """Run one case; returns (seconds, output, error text).

    The cyclic garbage collector is paused inside the case, as ``timeit``
    does, so that a collection owed to earlier cases' garbage does not
    land in whichever case happens to cross the threshold; it runs again
    between cases, outside the timed region."""
    if tracer is not None:
        tracer.begin_case(case.id)
    gc.disable()
    start = time.perf_counter()
    try:
        out = case.run(api)
        error = ""
    except Exception as exc:  # a raising case counts as failed, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        gc.enable()
    if tracer is not None:
        tracer.end_case()
    return elapsed, out, error


def verify(case, out, error, reference):
    """Failure text for one executed case ('' when it passed)."""
    if error:
        return f"raised {error}"
    try:
        outcome = case.check(out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    if not outcome.ok:
        return f"wrong verdict {outcome.note}".strip()
    if reference is not None:
        return reference_mismatch(reference.get(case.id), outcome)
    return ""


def run_pass(cases, api, reference, calibration, tracer=None, deadline=None):
    """Time every case once, in order, and verify it; stop early once
    ``deadline`` has passed.  Returns the case seconds as measured, the
    same at reference machine speed (see ``machine_slowdown``), and the
    failures as (case id, reason)."""
    raw, scaled, failures = [], [], []
    slowdown, calibrated = machine_slowdown(calibration), time.perf_counter()
    for case in cases:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        before = slowdown
        elapsed, out, error = execute(case, api, tracer)
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            slowdown, calibrated = machine_slowdown(calibration), time.perf_counter()
        raw.append(elapsed)
        scaled.append(elapsed / ((before + slowdown) / 2))
        reason = verify(case, out, error, reference)
        if reason:
            failures.append((case.id, reason))
    return raw, scaled, failures


def pass_counts(cases):
    totals = dict.fromkeys(WORK_COUNTS, 0)
    for case in cases:
        for name, value in case.counts.items():
            totals[name] += value
    return totals


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads():
    """Pin BLAS/OpenMP pools to one thread (never more than ``nproc``):
    every workload is a single-threaded loop or elementwise numpy, and a
    thread pool would only add scheduling noise.  Call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # the config layout differs between numpy versions
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "clock": "time.perf_counter",
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Inclusive-method percentile, q in (0, 100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

CALIBRATE_EVERY_S = 0.1


def interpreter_kernel():
    """Fixed exact arithmetic in the interpreter; touches no library code."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


def array_kernel():
    """Fixed float64 work on a 1M-point grid; touches no library code."""
    import numpy

    x = numpy.linspace(0.0, 1.0, 1_000_000)
    return float(numpy.min(x - x * x))


# Each kernel with its best-of-three seconds on the reference machine
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4) when it runs at full
# speed.  A workload names the kernel whose slowdowns track its own work:
# interpreted arithmetic and 1M-point numpy arrays slow down differently.
CALIBRATION = {
    "interpreter": (interpreter_kernel, 0.00084),
    "arrays": (array_kernel, 0.0047),
}


def machine_slowdown(kind):
    """How much slower than the reference machine this one runs right now.

    Shared hosts slow a vCPU by up to 1.8x for seconds to minutes at a
    time; timing a fixed kernel of the same kind of work next to each case
    and dividing by this factor leaves the library's own speed."""
    kernel, reference_s = CALIBRATION[kind]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best / reference_s
