"""Layered, answer-checked benchmark of the twocubes package.

    python3 perfbench/run.py --workload census-gl2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run generates its inputs from the seed, then drives the package as a
closed loop: one operation at a time, from this one process, for the
number of passes that lasts about `--seconds` at the seed commit's speed
(`workloads.PASS_S`), so a seed and `--seconds` always give the same inputs
and the same answers.  Each operation is timed in CPU time of this
thread, so time spent waiting for a processor held by other work on the
machine does not count, and the end-to-end timings are scaled to a
reference host speed by `calibrate.py`.  Every answer is checked against a
reference the package did not compute.  With `--trace 0` nothing is wrapped and the run
reports the end-to-end metrics; with `--trace 1` the layer wrappers of
`tracer.py` are installed and the run reports the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  `--workload all` runs each workload in its own process, one
after another, and reports every metric prefixed by its workload.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import coldstart

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9     # fresh interpreters behind one setup_s median


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "twocubes", "__init__.py")):
        sys.exit(f"error: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import twocubes

    if not os.path.abspath(twocubes.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: twocubes imported from {twocubes.__file__}, not {SRC}")


class Tally:
    """Answers counted against the number attempted, with their latencies."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.latencies = []
        self.kinds = []
        self.controls = {}  # kind -> (op, answer) of the first agreeing answer

    def record(self, op, answer, seconds, failed=False):
        try:
            ok = not failed and op.check(answer) is True
        except Exception:  # a malformed answer is a wrong answer
            ok = False
        self.attempted += 1
        self.wrong += 0 if ok else 1
        self.latencies.append(seconds)
        self.kinds.append(op.kind)
        if ok and op.kind not in self.controls:
            self.controls[op.kind] = (op, answer)
        return ok


def time_op(op, root=None):
    """(answer, CPU seconds, raised) for one call into the package."""
    t0 = time.thread_time()
    try:
        answer = root(op.kind, op.call) if root else op.call()
        raised = False
    except Exception:
        answer, raised = None, True
    return answer, time.thread_time() - t0, raised


def run_pass(batch, tally, root=None, calibrator=None):
    """One pass over `batch`.  With a calibrator, the pass's latencies are
    scaled to the reference host speed of the kernel runs between them."""
    begin = len(tally.latencies)
    for op in batch:
        answer, dt, raised = time_op(op, root)
        tally.record(op, answer, dt, raised)
        if calibrator is not None:
            calibrator.after(dt)
    if calibrator is not None:
        f = calibrator.factor()
        tally.latencies[begin:] = [dt * f for dt in tally.latencies[begin:]]


def closed_loop(workload, passes, between=None):
    """Run operations back to back, `passes` whole passes, with latencies at
    the reference host speed.  `between()` runs between two passes, outside
    every timed call."""
    tally = Tally()
    calibrator = calibrate.Calibrator()
    for i, batch in enumerate(workload.passes(passes)):
        if i and between is not None:
            between()
        run_pass(batch, tally, calibrator=calibrator)
    return tally


def traced_loop(workload, passes, tracer, between):
    """Like `closed_loop`, but each pass's inputs run twice: once with the
    tracer installed and once without, the traced run first on every other
    pass.  Both see the same inputs on the same stretches of a shared
    machine, so their time ratio is the tracing overhead."""
    traced, plain = Tally(), Tally()
    root = lambda kind, call: tracer.root(f"op.{kind}", call)  # noqa: E731
    for i, batch in enumerate(workload.passes(passes)):
        if i:
            between()
        for with_tracer in ((True, False) if i % 2 == 0 else (False, True)):
            if with_tracer:
                tracer.install()
                try:
                    run_pass(batch, traced, root)
                finally:
                    tracer.uninstall()
            else:
                run_pass(batch, plain)
    return traced, plain


def negative_control(tally) -> bool:
    """A deliberately wrong copy of a real, agreeing answer of every kind of
    operation that ran must be counted as wrong."""
    kinds = set(tally.kinds)
    if set(tally.controls) != kinds:
        return False
    for op, answer in tally.controls.values():
        probe = Tally()
        probe.record(op, op.spoil(answer), 0.0)
        if probe.wrong != 1:
            return False
    return True


def quantile(values, q):
    """Empirical quantile with linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(tally, cold) -> dict:
    """Timings over every operation of the run, in CPU seconds at the
    reference host speed."""
    lat = tally.latencies
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(lat, 0.9) * 1e3, "ms"),
        "agree_ratio": ((tally.attempted - tally.wrong) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (cold["setup_s"], "s"),
    }


def per_layer(tracer, traced, plain, cold) -> dict:
    """Layer metrics of the traced copies, per workload operation, in the
    order of the package's layers: roots, decomp, forms, exact, families,
    ecurve, classify, cli; then the tracer's own overhead."""
    import tracer as tracing
    import workloads

    n = traced.attempted
    op_seconds = sum(traced.latencies)
    totals = tracer.totals()
    out = {}

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def spanned(*names):
        for name in names:
            out[f"{name}.calls"] = (calls(name) / n, "calls/op")
            out[f"{name}.s"] = (seconds(name) / n, "s/op")

    spanned("roots.linear_factors")
    out["roots.linear_factors.share"] = (seconds("roots.linear_factors") / op_seconds, "ratio")
    out["roots.aberth.calls"] = (calls("roots.aberth") / n, "calls/op")
    out["roots.reconstruct.calls"] = (calls("roots.reconstruct") / n, "calls/op")
    out["roots.rung_yield"] = (
        _ratio(tracer.outcomes["roots.linear_factors"], calls("roots.reconstruct")), "ratio")
    out["decomp.rep_count.s"] = (seconds("decomp.rep_count") / n, "s/op")
    out["decomp.rep_count.self_s"] = (totals.get("decomp.rep_count", (0, 0.0, 0.0))[2] / n, "s/op")
    spanned("decomp.pair_partitions", "decomp.H_eval", "decomp.dependence_test",
            "decomp.construct_from_triple")
    out["decomp.dependent_ratio"] = (
        _ratio(tracer.outcomes["decomp.dependence_test"], calls("decomp.dependence_test")), "ratio")
    out["decomp.kept_ratio"] = (
        _ratio(tracer.outcomes["decomp.rep_count"], calls("decomp.construct_from_triple")), "ratio")
    spanned("forms.mul", "forms.pow", "forms.proportional_to", "forms.form_compose",
            "forms.form_gcd", "forms.form_divexact")
    for name in tracing.COUNTERS:
        out[f"{name}.calls"] = (tracer.counts[name] / n, "calls/op")
        out[f"{name}.us"] = (tracer.replay_us(name), "us")
    # identity groups are whole operations: timed in the untraced copies
    by_kind = {}
    for kind, dt in zip(plain.kinds, plain.latencies):
        by_kind.setdefault(kind, []).append(dt)
    for gid in workloads.GROUPS:
        runs = by_kind.get(f"group_{gid}", [])
        out[f"families.group_{gid}.s"] = (statistics.fmean(runs) if runs else 0.0, "s")
    for name in ("curve_add", "eb_forward", "eb_inverse", "curve_third_rep"):
        out[f"ecurve.{name}.s"] = (seconds(f"ecurve.{name}") / n, "s/op")
    spanned("classify.type_detect")
    out["cli.import_s"] = (cold["import_s"], "s")
    out["cli.first_call_s"] = (cold["first_call_s"], "s")
    out["trace.overhead_ratio"] = (op_seconds / sum(plain.latencies), "ratio")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing
    import workloads

    workload = workloads.build(name, seed)
    cold = coldstart.ColdStarts(SRC, SETUP_REPEATS)
    if not trace:
        tally = closed_loop(workload, workload.passes_for(seconds), between=cold.between)
        metrics = end_to_end(tally, cold.finish())
        checked = [tally]
    else:
        tracer = tracing.Tracer(seed)
        # each pass runs twice, so half as many passes fill the same time
        traced, plain = traced_loop(workload, workload.passes_for(seconds / 2), tracer,
                                    cold.between)
        metrics = per_layer(tracer, traced, plain, cold.finish())
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.tsv.gz"))
        checked = [traced, plain]
    return {
        "correct": all(negative_control(t) for t in checked),
        "attempted": sum(t.attempted for t in checked),
        "failed": sum(t.wrong for t in checked),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: " + json.dumps(result))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "census-gl2", "identities", "chord", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_package()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for key, metric in result["metrics"].items():
            print(f"{key:40s} {metric['value']:14.6g} {metric['unit']}")
        print(f"attempted {result['attempted']}, wrong {result['failed']} "
              f"(wrong_ratio {result['failed'] / result['attempted']:.4f}), "
              f"negative control {'caught' if result['correct'] else 'MISSED'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
