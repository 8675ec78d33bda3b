#!/usr/bin/env python3
"""certnn benchmark: time to a certificate, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 45 --trace 0

Workloads (see spec.json for the why, the op and the correctness rule of each):
``case_study``, ``set_algebra`` and ``range_bnb``; BENCHMARK.json lists the
first two, and ``range_bnb`` runs by hand (spec.json says why).  Each is a
fixed op list; a run executes whole passes over it, one op at a time in a
closed loop, each pass in an order drawn from ``--seed``.  The number of passes is
``--seconds`` over the workload's nominal pass time, so a run lasts about
``--seconds`` at this commit and always measures the same ops.  Every answer
is checked against ``reference.json`` outside the timed region; a wrong
answer, an exception or an op over its budget counts as a failed op.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes (half as many pairs as passes, at
least two) and reports the per-layer metrics, the tracing overhead, and
whether both passes gave the same answers and counts.
Each run writes its metrics, the environment stamp and per-op records to
``.perfbench_out/`` (and, when traced, the spans).  The last line of standard
output is the result object.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
OP_BUDGET_S = 30.0
SETUP_REPEATS = 7
WORKLOADS = ("case_study", "range_bnb", "set_algebra")


class OpBudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpBudgetExceeded(f"op exceeded its {OP_BUDGET_S:g} s budget")


def import_certnn():
    """Import certnn from this checkout's src/ only, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import certnn

    if Path(certnn.__file__).resolve().parent != src / "certnn":
        raise ImportError(f"certnn resolved to {certnn.__file__}, not {src / 'certnn'}")


def setup(workload: str, work: Path):
    """Everything a run needs before its first op: inputs, references, checks."""
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    return workloads.build(workload, reference, work)


def setup_sample(args) -> float:
    """CPU time (user + system) of one fresh process that imports certnn and builds the workload.

    CPU time rather than wall time, so that waits on the page cache and the
    scheduler, which a change to certnn does not cause, do not count.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highspy_importable": importlib.util.find_spec("highspy") is not None,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def run_op(wl, i: int, seq: int) -> dict:
    """Run op i under the budget, then check its answer outside the timed region."""
    rec = {"seq": seq, "op": wl.ops[i].key, "ok": False, "reason": None, "answer": None}
    signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
    t0 = time.perf_counter()
    try:
        answer = wl.ops[i].run()
    except OpBudgetExceeded as exc:
        rec["reason"] = str(exc)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        rec["reason"] = f"{type(exc).__name__}: {exc}"
    else:
        rec["answer"] = answer
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        rec["latency_s"] = time.perf_counter() - t0
    if rec["answer"] is not None:
        try:
            rec["reason"] = wl.check(i, rec["answer"])
            rec["fingerprint"] = wl.fingerprint(rec["answer"])
        except Exception as exc:
            rec["reason"] = f"check raised {type(exc).__name__}: {exc}"
        rec["ok"] = rec["reason"] is None
    del rec["answer"]
    return rec


def run_pass(wl, order, records: list, tracer=None) -> float:
    """One pass over the op list; returns the summed op latency."""
    total = 0.0
    for i in order:
        seq = len(records)
        if tracer is not None:
            tracer.op = seq
        rec = run_op(wl, int(i), seq)
        records.append(rec)
        total += rec["latency_s"]
    return total


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 ops beyond it.

    Interpolated like the median.  A run of fewer than 20 ops has no such
    percentile above the median, so its tail is the median (p50), never a
    lower percentile; the report records which percentile was taken.
    """
    pct = max(50.0, 100.0 * (len(latencies) - 10) / len(latencies))
    return float(np.percentile(latencies, pct)), pct


def declared_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def pass_count(wl, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass time.

    The count depends on the arguments only, not on how fast this run goes,
    so every run of a workload measures the same ops and its percentiles
    are taken at the same ranks.
    """
    return max(1, round(seconds / wl.nominal_pass_s))


def end_to_end(wl, args, rng) -> tuple[dict, dict, list]:
    """Timed passes, with the set-up samples spread between them.

    Spreading the fresh set-up processes over the run, rather than taking
    them back to back, keeps one slow moment of the machine from setting
    their median.
    """
    n_passes = pass_count(wl, args.seconds)
    setup_before = [i * n_passes // SETUP_REPEATS for i in range(SETUP_REPEATS)]
    records: list = []
    passes, setups = [], []
    for p in range(n_passes):
        setups += [setup_sample(args) for _ in range(setup_before.count(p))]
        passes.append(run_pass(wl, rng.permutation(len(wl.ops)), records))
    latencies = [r["latency_s"] for r in records]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "wall_s": statistics.median(passes),
        "op_s.p50": float(np.percentile(latencies, 50)),
        "op_s.tail": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "passes": len(passes),
        "ops_per_pass": len(wl.ops),
        "op_s.tail_percentile": tail_pct,
        "setup_s.samples": setups,
    }
    return metrics, extra, records


def traced(wl, args, rng) -> tuple[dict, dict, list]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    records: list = []
    plain, traced_walls, per_pass = [], [], []
    mismatches = []
    # At least two traced passes, so the counts can be compared between them.
    for _ in range(max(2, pass_count(wl, args.seconds) // 2)):
        order = rng.permutation(len(wl.ops))
        start = len(records)
        plain.append(run_pass(wl, order, records))
        lo = len(tracer.spans)
        tracer.install()
        try:
            traced_walls.append(run_pass(wl, order, records, tracer))
        finally:
            tracer.uninstall()
            tracer.op = None
        per_pass.append(layer_metrics(tracer.spans, lo))
        n = len(order)
        for a, b in zip(records[start : start + n], records[start + n :]):
            if a.get("fingerprint") != b.get("fingerprint"):
                mismatches.append(f"{a['op']}: untraced {a.get('fingerprint')} traced {b.get('fingerprint')}")
    counts = ("lp.calls", "milp.bnb.nodes", "milp.tighten.lps")
    for name in counts:
        if len({p[name] for p in per_pass}) != 1:
            mismatches.append(f"{name} differs between traced passes: {[p[name] for p in per_pass]}")
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.dump(spans_path)
    extra = {
        "pairs": len(plain),
        "untraced_wall_s": statistics.median(plain),
        "mismatches": mismatches,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return metrics, extra, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="orders the ops of each pass")
    ap.add_argument("--seconds", type=float, default=45.0, help="measurement length of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        import_certnn()
    except ImportError as exc:
        print(f"error: cannot import certnn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    work = OUT / "work" / (f"{args.workload}-setup" if args.setup_only else args.workload)
    wl = setup(args.workload, work)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    rng = np.random.default_rng(args.seed)
    key = "per_layer" if args.trace else "end_to_end"
    metrics, extra, records = (traced if args.trace else end_to_end)(wl, args, rng)
    units = declared_metrics(key)
    if set(units) != set(metrics):
        raise RuntimeError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and not extra.get("mismatches")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **result,
        "extra": extra,
        "ops": records,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n"
    )
    print(f"environment {json.dumps(report['environment'])}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, value in extra.items():
        print(f"{name} {value}")
    print(f"ops attempted {len(records)} failed {failed} fail_frac {failed / len(records):.6g}")
    for r in records:
        if not r["ok"]:
            print(f"failed op {r['op']} after {r['latency_s']:.3f} s: {r['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
