"""confjudge benchmark.

    python3 confbench/run.py --workload eval-readme --seed 1 --seconds 20 --trace 0

Workloads (sizes in spec.json): ``eval-readme``, ``eval-wide``,
``serve-point``.  The data is generated from ``--seed``; the loop measures
for ``--seconds``.  With ``--trace 0`` the result carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run plus the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (``info ...``) records the environment, sample counts and the
sha256 of eval.csv.  The exit code is 0 when every output check passes,
1 when one fails, and 2 when the confjudge sources are missing.
"""

from __future__ import annotations

import os

# numpy links a threaded OpenBLAS; pin every pool to one thread before any
# import can load it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = SPEC["workloads"]


def _import_confjudge() -> bool:
    """Import confjudge from this checkout's src/, never from elsewhere."""
    if not (SRC / "confjudge" / "__init__.py").is_file():
        print(f"confjudge sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import confjudge
    if Path(confjudge.__file__).resolve().parent != (SRC / "confjudge").resolve():
        print(f"imported confjudge from {confjudge.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "confjudge").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "jobs": 1,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# End-to-end run


COST_PERCENTILE = 90


def method_costs(methods, times_ms) -> dict:
    """Each method's 90th-percentile operation time.  On the shared machine
    this benchmark was built on, the CPU runs at a slow speed most of the
    time and drops into a faster one for stretches of seconds to a minute,
    so low and middle percentiles follow how much of a run was fast, while
    a high percentile repeats (spec.json, "timing")."""
    by_method = defaultdict(list)
    for m, t in zip(methods, times_ms):
        by_method[m].append(t)
    return {m: float(np.percentile(v, COST_PERCENTILE)) for m, v in by_method.items()}


def end_to_end(wl, seed, seconds, path, work_dir):
    # imported here, not at the top: workloads imports confjudge, which must
    # come from this checkout's src/ (see _import_confjudge)
    import workloads as w

    import_s = w.import_seconds(SRC)
    setup_times, ds, model_sets = w.setups(wl, path, seed)
    info = {"import_s": import_s, "setup_reps": wl["setup_reps"]}
    if wl["kind"] == "eval":
        run = w.run_eval(ds, wl, w.split_seeds(seed), seconds)
        problems = w.check_eval(wl, run)
        ops = len(run.cell_ms)
        failed = len(run.errors)
        costs = method_costs(itertools.cycle(wl["methods"]), run.cell_ms)
        tail = max(costs.values())
        first = run.seeds[:wl["min_seeds"]]
        info.update(cells=ops, seeds=len(run.seeds),
                    eval_csv_seeds=[first[0], first[-1]],
                    eval_csv_sha256=w.eval_csv_sha256(run.rows, first, work_dir))
    else:
        stream = w.generate(wl, seed + w.STREAM_SEED_OFFSET, wl["stream_n"])
        run = w.run_serve(model_sets, wl, stream, seconds=seconds)
        problems = w.check_serve(wl, run, model_sets, stream)
        ops = len(run.points) + len(run.failures)
        failed = len(run.failures)
        costs = method_costs((p[1] for p in run.points), run.latency_ms)
        tail = float(np.percentile(run.latency_ms, 99))
        info.update(points=ops, beyond_p99=sum(1 for x in run.latency_ms if x > tail))
    metrics = {
        "setup_s": _metric(import_s + statistics.median(setup_times), "s"),
        "ops_per_s": _metric(1000.0 * len(costs) / sum(costs.values()), "1/s"),
        "op_p90_ms": _metric(statistics.median(costs.values()), "ms"),
        "op_tail_ms": _metric(tail, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    info.update(wall_s=run.wall_s, method_p90_ms=costs, ops_per_s_wall=ops / run.wall_s)
    return metrics, ops, failed, problems, info


# ---------------------------------------------------------------------------
# Traced run


def layer_metrics(tracer, wall_s, untraced_wall_s) -> dict:
    import confjudge as cj

    s, c = tracer.self_s, tracer.calls
    out = {}

    def put(name, value, unit):
        out[name] = _metric(value, unit)

    put("core.read_samples.s", s["core.read_samples"], "s")
    put("core.split.s", s["core.split"], "s")
    put("core.split.calls", c["core.split"], "count")
    qf = "estimators.quantile_forest"
    put(f"{qf}.fit.s", s[f"{qf}.fit"], "s")
    put(f"{qf}.fit.calls", c[f"{qf}.fit"], "count")
    put(f"{qf}.trees", tracer.counts[f"{qf}.trees"], "count")
    put(f"{qf}.from_dict.s", s[f"{qf}.from_dict"], "s")
    put(f"{qf}.from_dict.calls", c[f"{qf}.from_dict"], "count")
    put(f"{qf}.predict.s", s[f"{qf}.predict"], "s")
    bc = "estimators.bin_classifier"
    put(f"{bc}.fit.s", s[f"{bc}.fit"], "s")
    put(f"{bc}.epochs", tracer.counts[f"{bc}.epochs"], "count")
    put(f"{bc}.from_dict.s", s[f"{bc}.from_dict"], "s")
    put(f"{bc}.predict_proba.s", s[f"{bc}.predict_proba"], "s")
    put("estimators.kernel.median_bandwidth.s", s["estimators.kernel.median_bandwidth"], "s")
    put("estimators.kernel.weights_batch.s", s["estimators.kernel.weights_batch"], "s")
    put("estimators.kernel.pair_bytes", tracer.maxima["estimators.kernel.pair_bytes"], "bytes_computed")
    for m in cj.METHODS:
        put(f"conformal.calibrate.{m}.s", s[f"conformal.calibrate.{m}"], "s")
        put(f"conformal.predict.{m}.s", s[f"conformal.predict.{m}"], "s")
        put(f"conformal.predict_interval.{m}.p50_ms", tracer.p50_ms(f"conformal.predict_interval.{m}"), "ms")
    put("conformal.predict_interval.s",
        sum(s[f"conformal.predict_interval.{m}"] for m in cj.METHODS), "s")
    put("conformal.model_to_json.s", s["conformal.model_to_json"], "s")
    put("conformal.model_from_json.s", s["conformal.model_from_json"], "s")
    put("conformal.degenerate", tracer.counts["conformal.degenerate"], "count")
    put("conformal.intervals", tracer.counts["conformal.intervals"], "count")
    put("adjust.adjust.s", s["adjust.adjust"], "s")
    put("adjust.adjust.calls", tracer.counts["adjust.calls"], "count")
    put("adjust.empty", tracer.counts["adjust.empty"], "count")
    put("adjust.midpoint.s", s["adjust.midpoint"], "s")
    put("analysis.coverage.s", s["analysis.coverage"], "s")
    put("analysis.evaluate.cells", tracer.counts["analysis.evaluate.cells"], "count")
    put("analysis.evaluate.errors", tracer.counts["analysis.evaluate.errors"], "count")
    self_sum = tracer.self_sum()
    put("trace.wall_s", wall_s, "s")
    put("trace.untraced_wall_s", untraced_wall_s, "s")
    put("trace.overhead_s", wall_s - untraced_wall_s, "s")
    put("trace.self_sum_s", self_sum, "s")
    put("trace.unattributed_s", wall_s - self_sum, "s")
    return out


def traced(wl, seed, seconds, path):
    """An untraced pass for half the run length, then the same seeds or
    points again under tracing; the difference is the tracing overhead."""
    import workloads as w
    from tracing import Tracer

    tracer = Tracer(keep_durations=("conformal.predict_interval.",))
    if wl["kind"] == "eval":
        t0 = time.perf_counter()
        ds, _ = w.setup(wl, path, seed)
        untraced = w.run_eval(ds, wl, w.split_seeds(seed), seconds / 2)
        untraced_wall = time.perf_counter() - t0
        run = w.traced_eval(path, wl, untraced.seeds, tracer)
        problems = w.check_eval(wl, untraced) + w.check_same_rows(untraced, run)
        attempted = len(untraced.seeds) * len(wl["methods"])
        failed = len(run.errors)
    else:
        stream = w.generate(wl, seed + w.STREAM_SEED_OFFSET, wl["stream_n"])
        t0 = time.perf_counter()
        _, _, model_sets = w.setups(wl, path, seed)
        untraced = w.run_serve(model_sets, wl, stream, seconds=seconds / 2)
        untraced_wall = time.perf_counter() - t0
        attempted = len(untraced.points) + len(untraced.failures)
        run = w.traced_serve(path, wl, seed, stream, attempted, tracer)
        problems = (w.check_serve(wl, untraced, model_sets, stream)
                    + w.check_same_points(untraced, run))
        failed = len(run.failures)
    return layer_metrics(tracer, run.wall_s, untraced_wall), attempted, failed, problems, {}


# ---------------------------------------------------------------------------


def main(argv=None, workloads=None) -> int:
    workloads = workloads or WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_confjudge():
        return 2
    wl = workloads[args.workload]
    work_dir = ROOT / ".confbench" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        import confjudge as cj
        import workloads as w
        path = work_dir / "samples.jsonl"
        cj.write_samples(path, w.generate(wl, args.seed))
        if args.trace:
            metrics, attempted, failed, problems, info = traced(wl, args.seed, args.seconds, path)
        else:
            metrics, attempted, failed, problems, info = end_to_end(
                wl, args.seed, args.seconds, path, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for p in problems:
        print(f"CHECK FAILED [{args.workload}]: {p}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "problems": problems, **info, "env": environment()}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not problems and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
