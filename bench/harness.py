"""Measurement loop, metrics and output of the jno benchmark.

Load is a closed loop from one process and one thread: the next op starts
when the previous one has returned.  A run sets the workload up
`SETUP_REPS` times (each time: construction plus one warm-up op), half
before the timed ops and half after them, so that the set-up median spans
the run; it times ops for `seconds` of wall time.  Output checks run
between ops, off the clock, on every `check_every`-th op.

The gated op metric, `op_fast_rel`, is `op_fast_ms` / `ref_loop_ms`:
`op_fast_ms` is the sum over the op's stages of each stage's fastest time
in the run (see `workloads.StageClock`), and `ref_loop_ms` the fastest
time, over the same run, of a fixed pure-Python loop that runs between
ops.  The shared host slows both by about the same factor, so the ratio
keeps what the code costs.  See bench/README.md.

Untraced runs report the end-to-end metrics.  Traced runs alternate
untraced and traced ops, report the per-layer metrics of the traced ones
and `bench.trace_overhead`, the ratio of their median op times.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

SETUP_REPS = 6  # half before the timed ops, half after
REF_EVERY_S = 0.1  # least time between two runs of the reference loop
P90_MIN_OPS = 100  # p90 is reported only with at least 10 samples above it

# Metric names and units come from the contract.
CONTRACT_PATH = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

_INCLUSIVE = ("evaluator.derivative_ad", "nn.forward")

# Thread-count getters exported by the OpenBLAS builds numpy and scipy ship.
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def blas_threads():
    """Thread count of each bundled OpenBLAS, by library file name."""
    site = Path(np.__file__).resolve().parents[1]
    found = {}
    for pattern in ("numpy.libs/*openblas*", "scipy.libs/*openblas*"):
        for lib in sorted(site.glob(pattern)):
            handle = ctypes.CDLL(str(lib))
            for symbol in _BLAS_GETTERS:
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[lib.name] = getter()
                    break
    return found


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def pinning_problem(env):
    counts = env["blas_threads"]
    if not counts:
        return "no OpenBLAS thread count could be read"
    if any(n != 1 for n in counts.values()):
        return f"BLAS is not pinned to one thread: {counts}"
    return None


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

_REF_TABLE = {i: i % 7 for i in range(1024)}


def reference_loop(n=20000):
    """Fixed interpreter work that calls nothing in jno: the yardstick of
    the host's speed.  It allocates no container, so no garbage collection
    runs inside it and the heap jno leaves behind does not change it."""
    table = _REF_TABLE
    acc = 0
    for i in range(n):
        acc ^= table[i & 1023] + i
    return acc


def time_reference_loop():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def measure(name, seed, seconds, trace, sizes=workloads.FULL, max_ops=None,
            import_s=0.0):
    """Run one workload; returns (result, report, tracer or None)."""
    tracer = spans.Tracer() if trace else None
    setup_times = []

    def set_up():
        """Build the workload and run its warm-up op, timed."""
        if tracer is not None:
            tracer.begin_op(-1 - len(setup_times))
            tracer.install()
        t0 = time.perf_counter()
        try:
            w = workloads.make(name, sizes[name], seed, tracer)
            w.setup()
            out = w.op()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)
        w.observe(out)
        return w

    for _ in range(SETUP_REPS // 2):
        w = None  # drop the previous repetition before building the next
        w = set_up()

    durations, traced_ids, failures = [], [], []
    stage_s, ref_s = {}, []
    next_ref = 0.0
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while (i == 0 or time.perf_counter() < deadline) and \
            (max_ops is None or i < max_ops):
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.begin_op(i)
            tracer.install()
            traced_ids.append(i)
        out = None
        t0 = time.perf_counter()
        try:
            out = w.op()
        except Exception:  # an op that raises counts as failed; keep going
            failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
        finally:
            durations.append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
        if time.perf_counter() >= next_ref:
            ref_s.append(time_reference_loop())
            next_ref = time.perf_counter() + REF_EVERY_S
        problems = []
        if out is not None:
            for stage, t in w.clock.times.items():
                stage_s.setdefault(stage, []).append(t)
            if not math.isfinite(out["loss"]):
                problems.append(f"non-finite loss {out['loss']!r}")
            elif i % w.sizes.check_every == 0:
                problems = w.check(out)
            w.observe(out)
        if out is None or problems:
            failed += 1
            failures += [f"op {i}: {p}" for p in problems]
        i += 1
    w.finish()
    points_per_op = w.points_per_op
    workload_report = w.report()
    w = out = None  # the trailing set-ups start from an empty process state
    for _ in range(SETUP_REPS - SETUP_REPS // 2):
        set_up()

    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "sizes": asdict(sizes[name]),
        "setup_reps": SETUP_REPS,
        "setup_rep_s": setup_times,
        "import_s": import_s,
        "op_samples": len(durations),
        "op_s": durations,
        "error_rate": failed / len(durations),
        "failures": failures[:20],
        **workload_report,
    }
    rel = report.get("rel_l2_err")
    correct = failed == 0 and (rel is None or math.isfinite(rel))

    if tracer is None:
        op_s = np.asarray(durations)
        op_fast_ms = 1e3 * sum(min(t) for t in stage_s.values())
        ref_loop_ms = 1e3 * min(ref_s)
        metrics = {
            "op_fast_rel": op_fast_ms / ref_loop_ms,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["points_per_s"] = points_per_op * len(op_s) / op_s.sum()
        report["op_fast_ms"] = op_fast_ms
        report["ref_loop_ms"] = ref_loop_ms
        report["ref_loop_samples"] = len(ref_s)
        report["op_min_ms"] = 1e3 * float(op_s.min())
        report["stage_min_ms"] = {k: 1e3 * min(t) for k, t in stage_s.items()}
        report["op_p25_ms"] = 1e3 * float(np.percentile(op_s, 25))
        report["op_p50_ms"] = 1e3 * float(np.median(op_s))
        report["op_p90_ms"] = 1e3 * float(np.percentile(op_s, 90)) \
            if len(op_s) >= P90_MIN_OPS else None
    else:
        metrics = per_layer_metrics(tracer, traced_ids, durations)
    contract = json.loads(CONTRACT_PATH.read_text())
    units = {m["name"]: m["unit"]
             for m in contract["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise KeyError("metrics differ from BENCHMARK.json: "
                       f"{sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": bool(correct),
        "attempted": len(durations),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    return result, report, tracer


def per_layer_metrics(tracer, traced_ids, durations):
    """Per-op means over the traced ops, plus set-up medians over the
    set-up repetitions.  Times are self times unless stated."""
    self_s, incl_s, counts = tracer.summarize(traced_ids, _INCLUSIVE)

    def ms(selfs, *names):
        return 1e3 * sum(selfs.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "tensor.records_per_op": counts.get("tensor.records", 0),
        "tensor.replay_ms": ms(self_s, "tensor.replay"),
        "tensor.prim_calls": counts.get("tensor.prim_calls", 0),
        "tensor.prim_ms": ms(self_s, *spans.PRIMITIVE_SPANS),
        "tensor.matmul_flops": counts.get("tensor.matmul_flops", 0),
        "tensor.matmul_bytes": counts.get("tensor.matmul_bytes", 0),
        "tensor.transpose_bytes": counts.get("tensor.transpose_bytes", 0),
        "trace.build_ms": ms(self_s, "trace.build"),
        "trace.cse_ms": ms(self_s, "trace.cse"),
        "trace.shapes_ms": ms(self_s, "trace.shapes"),
        "trace.nodes_before": counts.get("trace.nodes_before", 0),
        "trace.nodes_after": counts.get("trace.nodes_after", 0),
        "trace.cse_ratio": ratio(counts.get("trace.nodes_after", 0),
                                 counts.get("trace.nodes_before", 0)),
        # inclusive: the whole AD derivative, nested tapes and all
        "evaluator.derivative_ms": ms(incl_s, "evaluator.derivative_ad"),
        "evaluator.model_calls": counts.get("evaluator.model_calls", 0),
        "evaluator.fd_self_ms": ms(self_s, "evaluator.derivative_fd"),
        "evaluator.mls_build_ms": ms(self_s, "evaluator.mls_build"),
        "evaluator.node_evals": counts.get("evaluator.node_evals", 0),
        "evaluator.eval_self_ms": ms(self_s, "evaluator.evaluate",
                                     "evaluator.handler"),
        "evaluator.cache_hit_ratio": ratio(
            counts.get("evaluator.cache_hits", 0),
            counts.get("evaluator.evaluate_calls", 0)),
        "mesh.construct_ms": ms(self_s, "mesh.construct"),
        "mesh.connectivity_ms": ms(self_s, "mesh.connectivity"),
        "domain.init_ms": ms(self_s, "domain.init"),
        "domain.normals_ms": ms(self_s, "domain.normals"),
        "domain.resample_ms": ms(self_s, "domain.resample"),
        "fem.init_ms": ms(self_s, "fem.init"),
        "nn.forward_calls": counts.get("nn.forward_calls", 0),
        # inclusive: the forward pass with its tensor primitives
        "nn.forward_ms": ms(incl_s, "nn.forward"),
        "nn.optimizer_ms": ms(self_s, "nn.optimizer"),
    }

    reps = [tracer.summarize([-1 - r]) for r in range(SETUP_REPS)]
    for metric, span in (("setup.mesh.construct_ms", "mesh.construct"),
                         ("setup.mesh.connectivity_ms", "mesh.connectivity"),
                         ("setup.domain.init_ms", "domain.init"),
                         ("setup.evaluator.mls_build_ms",
                          "evaluator.mls_build")):
        m[metric] = statistics.median(ms(r[0], span) for r in reps)
    m["setup.mesh.vertices"] = statistics.median(
        r[2].get("mesh.vertices", 0) for r in reps)

    traced = set(traced_ids)
    plain = [d for i, d in enumerate(durations) if i not in traced]
    timed = [d for i, d in enumerate(durations) if i in traced]
    m["bench.trace_overhead"] = statistics.median(timed) / \
        statistics.median(plain) if timed and plain else 0.0
    return m


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def main(argv, import_s, root):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    problem = pinning_problem(env)
    if problem:
        print(f"refusing to report: {problem}", file=sys.stderr)
        return 2

    result, report, tracer = measure(args.workload, args.seed, args.seconds,
                                     args.trace, import_s=import_s)
    report["environment"] = env
    for failure in report["failures"]:
        print(failure, file=sys.stderr)

    out_dir = Path(root) / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out_dir / f"BENCH_{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.save(out_dir / f"spans_{stem}.npz")

    for key, metric in result["metrics"].items():
        print(f"{key:32s} {metric['value']:>16.6g} {metric['unit']}")
    print("report " + json.dumps(
        {k: v for k, v in report.items() if k != "op_s"}))
    print(json.dumps(result))
    return 0
