"""Run one benchmark workload against the library in ``src/``.

    python3 perfbench/run.py --workload exact-series --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (tracing off); with ``--trace 1``
they are the per-layer ones, taken from traced passes that alternate with
untraced ones, and the spans are written to ``perfbench/out/``.  Times
are reported at reference machine speed (see ``harness.machine_slowdown``);
the ``# as_measured`` line gives the same end-to-end metrics unscaled.
Lines before the last one record the environment and the run's shape.
``--record-reference`` rewrites the reference outputs for the default
seed instead of measuring.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import harness as H  # noqa: E402

H.pin_threads()

from workloads import WORKLOADS  # noqa: E402

COUNT_UNITS = {"nonregular.bytes_computed": "bytes"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=H.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def set_up(workload, seed):
    """Import the library, generate the seeded inputs and run the warm-up
    cases, SETUP_REPEATS times; the first repeat also carries interpreter
    and numpy/scipy start-up.  Returns the last library, its cases and
    every repeat's seconds, as measured and at reference speed."""
    raw, scaled = [], []
    slowdown = H.machine_slowdown(workload.CALIBRATION)
    for rep in range(H.SETUP_REPEATS):
        gc.collect()  # the previous repeat's garbage is not this repeat's work
        start = PROCESS_START if rep == 0 else time.perf_counter()
        lib = H.import_library()
        inputs = workload.generate(lib, random.Random(seed))
        api = H.bind(lib)
        for case in workload.warmup_cases(inputs):
            H.execute(case, api)
        raw.append(time.perf_counter() - start)
        before, slowdown = slowdown, H.machine_slowdown(workload.CALIBRATION)
        scaled.append(raw[-1] / ((before + slowdown) / 2))
    return lib, workload.pass_cases(inputs), {"raw": raw, "scaled": scaled}


def record_reference(name, cases, lib):
    api = H.bind(lib)
    records = {}
    for case in cases:
        _, out, error = H.execute(case, api)
        if error:
            raise H.BenchError(f"{case.id} raised {error}")
        outcome = case.check(out)
        if not outcome.ok:
            raise H.BenchError(f"{case.id} has a wrong verdict {outcome.note}")
        records[case.id] = H.reference_record(outcome)
    path = H.reference_path(name)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": H.DEFAULT_SEED, "cases": records},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} reference records to {path}")


def timed_passes(cases, lib, reference, calibration, seconds, trace):
    """Passes over the cases until ``seconds`` have gone by.  Untraced, the
    first pass is whole and the last one stops at the deadline.  Traced,
    whole passes alternate untraced/traced, at least one of each."""
    api = H.bind(lib)
    tracer = H.Tracer() if trace else None
    traced_api = H.bind(lib, tracer) if trace else None
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        cut_at = deadline if passes and not trace else None
        raw, scaled, failures = H.run_pass(cases, traced_api if traced else api,
                                           reference, calibration,
                                           tracer if traced else None, cut_at)
        passes.append({"traced": traced, "raw": raw, "scaled": scaled,
                       "failures": failures})
        if time.perf_counter() >= deadline and (not trace or len(passes) >= 2):
            return passes, tracer


def case_times(passes, key="scaled"):
    """Each case's median seconds over the passes (the last pass may stop
    early), so that a burst of noise in one pass does not count."""
    return [statistics.median([p[key][i] for p in passes if i < len(p[key])])
            for i in range(len(passes[0][key]))]


def typical_pass(passes):
    return sum(case_times(passes))


def end_to_end(cases, passes, setup, key="scaled"):
    """The end-to-end metrics from the untraced passes, at reference
    machine speed (``key="scaled"``) or as measured (``key="raw"``)."""
    untraced = [p for p in passes if not p["traced"]]
    per_case = [t * 1e3 for t in case_times(untraced, key)]
    attempted = sum(len(p["raw"]) for p in untraced)
    failed = sum(len(p["failures"]) for p in untraced)
    verified = (attempted - failed) / attempted
    metrics = {
        "setup_s": (statistics.median(setup[key]), "s"),
        "checks_per_s": (len(cases) * verified * 1e3 / sum(per_case), "1/s"),
        "case_ms_p50": (H.percentile(per_case, 50), "ms"),
        "case_ms_p90": (H.percentile(per_case, 90), "ms"),
        "verified_ratio": (verified, "ratio"),
        "peak_rss_mb": (H.peak_rss_mb(), "MB"),
    }
    shape = {"passes": len(untraced), "cases_per_pass": len(cases),
             "latency_samples": len(per_case), "failed_ratio": failed / attempted,
             "setup_seconds": setup}
    return metrics, shape


def per_layer(cases, passes, tracer):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)
    summary = tracer.summary()
    metrics = {}
    for name, _, _ in H.LAYER_CALLS:
        row = summary.get(name, {"calls": 0, "busy_s": 0.0})
        calls = row["calls"] / n
        metrics[f"{name}.s"] = (row["busy_s"] / n, "s")
        metrics[f"{name}.calls"] = (int(calls) if calls.is_integer() else calls, "count")
    metrics["case.unattributed.s"] = (summary["case"]["self_s"] / n, "s")
    metrics["trace.overhead_s"] = (typical_pass(traced) - typical_pass(untraced), "s")
    for name, value in H.pass_counts(cases).items():
        metrics[name] = (value, COUNT_UNITS.get(name, "count"))
    return metrics, summary


def write_spans(name, seed, tracer, summary):
    out_dir = H.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "case"],
                   "spans": tracer.spans, "summary": summary}, fh)
    return path


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        lib, cases, setup_seconds = set_up(workload, args.seed)
        if args.record_reference:
            record_reference(args.workload, cases, lib)
            return 0
        reference = (H.load_reference(args.workload)
                     if args.seed == H.DEFAULT_SEED else None)
    except H.BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(H.environment(args.seed)))
    print("# workload " + json.dumps({"name": args.workload, "why": workload.WHY,
                                      "reference_gate": reference is not None}))
    passes, tracer = timed_passes(cases, lib, reference, workload.CALIBRATION,
                                  args.seconds, args.trace)
    for p in passes:
        for case_id, reason in p["failures"][:20]:
            print(f"FAILED {case_id}: {reason}", file=sys.stderr)
    e2e, shape = end_to_end(cases, passes, setup_seconds)
    print("# shape " + json.dumps(shape))
    raw, _ = end_to_end(cases, passes, setup_seconds, "raw")
    print("# as_measured " + json.dumps({k: v for k, (v, _) in raw.items()}))
    print("# work_counts " + json.dumps(H.pass_counts(cases)))
    if args.trace:
        metrics, summary = per_layer(cases, passes, tracer)
        path = write_spans(args.workload, args.seed, tracer, summary)
        print(f"# spans {path.relative_to(H.ROOT)}")
    else:
        metrics = e2e
    attempted = sum(len(p["raw"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
