"""Workload runners: input generation, set-up, the measured loops, the
traced rebuild of each loop, and the output checks.

Every call into confjudge goes through its public API.  The eval loops run
what ``confjudge evaluate`` runs, one (method, seed) cell at a time; the
serve loop scores one item at a time against models that went through the
JSON round trip a separate serving process would make.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import confjudge as cj
from confjudge.analysis import write_eval_csv
from confjudge.conformal import predict_intervals_flagged
from tracing import NullTracer, Tracer, patched_estimators

SCALES = {"LIKERT_5": cj.LIKERT_5, "GPA_THIRDS": cj.GPA_THIRDS}
NOISES = {"homoscedastic": cj.Homoscedastic, "heteroscedastic": cj.Heteroscedastic}
STREAM_SEED_OFFSET = 1_000_003
IMPORT_REPS = 5


# ---------------------------------------------------------------------------
# Inputs and set-up


def generate(wl: dict, seed: int, n: int | None = None) -> cj.Dataset:
    spec = cj.GeneratorSpec(seed=seed, n=n or wl["n"], k=wl["k"],
                            noise=NOISES[wl["noise"]](wl["sigma"]), scale=SCALES[wl["scale"]])
    return cj.generate(spec)[0]


def split_seed(seed: int, i: int = 0) -> int:
    """The i-th split seed: split seeds run consecutively from an offset set
    by the workload seed."""
    return seed * 1000 + 1 + i


def split_seeds(seed: int):
    return itertools.count(split_seed(seed))


def policy_for(wl: dict, scale: cj.LabelScale):
    return cj.AdjustmentPolicy.full(scale) if wl["adjust"] == "full" else None


def policy_name(policy) -> str:
    """The ``policy`` column ``analysis.evaluate`` writes for a policy."""
    if policy is None:
        return "none"
    if policy.kind == cj.NEAREST:
        return f"nearest({policy.lam:g})"
    return policy.kind


def import_seconds(src) -> float:
    """Median time to import confjudge in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import confjudge; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                             text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def calibrate_models(ds: cj.Dataset, wl: dict, split_seed: int, tracer) -> dict:
    """Calibrate every method and round-trip each model through JSON."""
    with tracer.span("core.split"):
        train, calib, _ = cj.split(ds, cj.SplitSpec(split_seed))
    models = {}
    for m in wl["methods"]:
        kw = {"point_predictor": "raw_score"} if m == "split_abs" else {}
        with tracer.span(f"conformal.calibrate.{m}"):
            model = cj.calibrate(m, train, calib, wl["alpha"], None, **kw)
        with tracer.span("conformal.model_to_json"):
            text = cj.model_to_json(model)
        with tracer.span("conformal.model_from_json"):
            models[m] = cj.model_from_json(text)
    return models


def setup(wl: dict, path, seed: int, rep: int = 0, tracer=None):
    """One set-up: read the sample file and, for serve-point, calibrate one
    model set on the rep-th split of it.  Returns (dataset, models or None)."""
    tracer = tracer or NullTracer()
    with tracer.span("core.read_samples"):
        ds = cj.read_samples(path, SCALES[wl["scale"]])
    if wl["kind"] != "serve":
        return ds, None
    return ds, calibrate_models(ds, wl, split_seed(seed, rep), tracer)


def setups(wl: dict, path, seed: int, tracer=None):
    """Every set-up of a run: returns (seconds of each, dataset, model sets).
    serve-point serves all the model sets, so the per-point cost averages
    over the tree shapes of several calibrations instead of one."""
    times, model_sets = [], []
    for rep in range(wl["setup_reps"]):
        t0 = time.perf_counter()
        ds, models = setup(wl, path, seed, rep, tracer)
        times.append(time.perf_counter() - t0)
        model_sets.append(models)
    return times, ds, model_sets


# ---------------------------------------------------------------------------
# Eval workloads


@dataclass
class EvalRun:
    rows: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    seeds: list = field(default_factory=list)
    cell_ms: list = field(default_factory=list)
    wall_s: float = 0.0


def run_eval(ds: cj.Dataset, wl: dict, seeds, seconds: float | None = None) -> EvalRun:
    """Each (method, seed) cell through ``analysis.evaluate``, all methods
    of a seed before the next seed.  With ``seconds`` the loop stops at the
    first seed boundary after that time once ``min_seeds`` are done;
    without it, it runs exactly ``seeds``."""
    policy = policy_for(wl, ds.scale)
    run = EvalRun()
    t0 = time.perf_counter()
    for s in seeds:
        for m in wl["methods"]:
            c0 = time.perf_counter()
            report = cj.evaluate(ds, [m], [s], alpha=wl["alpha"], policy=policy, jobs=1)
            ms = 1000.0 * (time.perf_counter() - c0)
            run.rows.extend(report.rows)
            run.errors.update(report.errors)
            run.cell_ms.append(ms)
        run.seeds.append(s)
        if (seconds is not None and len(run.seeds) >= wl["min_seeds"]
                and time.perf_counter() - t0 >= seconds):
            break
    run.wall_s = time.perf_counter() - t0
    return run


def traced_cell(ds: cj.Dataset, wl: dict, method: str, seed: int, policy, tracer: Tracer) -> cj.EvalRow:
    """One evaluate cell rebuilt from public calls, a span around each."""
    with tracer.span("core.split"):
        train, calib, test = cj.split(ds, cj.SplitSpec(seed))
    kw = {"point_predictor": "raw_score"} if method == "split_abs" else {}
    with tracer.span(f"conformal.calibrate.{method}"):
        model = cj.calibrate(method, train, calib, wl["alpha"], None, **kw)
    with tracer.span(f"conformal.predict.{method}"):
        intervals, flags = predict_intervals_flagged(model, test.logits, test.raw_scores)
    tracer.counts["conformal.intervals"] += len(intervals)
    tracer.counts["conformal.degenerate"] += sum(1 for f in flags if f)
    if policy is not None:
        # one span per cell: a span per interval would cost more than adjust
        with tracer.span("adjust.adjust"):
            adjusted = [cj.adjust(iv, ds.scale, policy) for iv in intervals]
        tracer.counts["adjust.calls"] += len(adjusted)
        tracer.counts["adjust.empty"] += sum(1 for iv in adjusted if iv.empty)
    else:
        adjusted = intervals
    with tracer.span("analysis.coverage"):
        covered = 0
        widths = []
        for iv, y in zip(adjusted, test.labels):
            widths.append(0.0 if iv.empty else iv.width)
            if iv.covers(y):
                covered += 1
        coverage = covered / len(widths)
        mean_width = float(np.mean(widths))
    return cj.EvalRow(method, seed, policy_name(policy), mean_width, coverage)


def traced_eval(path, wl: dict, seeds, tracer: Tracer) -> EvalRun:
    """The eval loop rebuilt cell by cell under tracing, over fixed seeds."""
    run = EvalRun()
    t0 = time.perf_counter()
    ds, _ = setup(wl, path, 0, tracer=tracer)
    policy = policy_for(wl, ds.scale)
    with patched_estimators(tracer):
        for s in seeds:
            for m in wl["methods"]:
                tracer.counts["analysis.evaluate.cells"] += 1
                try:
                    run.rows.append(traced_cell(ds, wl, m, s, policy, tracer))
                except Exception as exc:  # a failed cell is recorded, as evaluate does
                    run.errors[(m, s)] = str(exc)
                    tracer.counts["analysis.evaluate.errors"] += 1
            run.seeds.append(s)
    run.wall_s = time.perf_counter() - t0
    return run


def eval_csv_sha256(rows, seeds, work_dir) -> str:
    """sha256 of the eval.csv that ``confjudge evaluate`` would write for
    ``seeds``: rows ordered by (method, seed) as evaluate orders them."""
    keep = set(seeds)
    chosen = sorted((r for r in rows if r.seed in keep), key=lambda r: (r.method, r.seed))
    path = work_dir / "eval.csv"
    write_eval_csv(path, chosen)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def check_eval(wl: dict, run: EvalRun) -> list:
    """Problems with an eval run's output; empty when it is correct."""
    problems = []
    if run.errors:
        problems.append(f"{len(run.errors)} error cells, e.g. {next(iter(sorted(run.errors.items())))}")
    expected = len(wl["methods"]) * len(run.seeds)
    if len(run.rows) != expected:
        problems.append(f"{len(run.rows)} rows, expected {expected}")
    floor = 1.0 - wl["alpha"] - wl["coverage_tolerance"]
    for m in wl["methods"]:
        covs = [r.coverage for r in run.rows if r.method == m]
        if not covs:
            problems.append(f"{m}: no rows")
        elif statistics.fmean(covs) < floor:
            problems.append(f"{m}: mean coverage {statistics.fmean(covs):.4f} below {floor:.4f}")
    return problems


def check_same_rows(untraced: EvalRun, traced: EvalRun) -> list:
    key = lambda r: (r.method, r.seed)
    if sorted(untraced.rows, key=key) != sorted(traced.rows, key=key):
        return ["traced rebuild does not reproduce the untraced EvalRows"]
    return []


# ---------------------------------------------------------------------------
# serve-point


@dataclass
class ServeRun:
    points: list = field(default_factory=list)  # (model set, method, row, lo, hi, midpoint)
    failures: list = field(default_factory=list)
    latency_ms: list = field(default_factory=list)
    wall_s: float = 0.0


def run_serve(model_sets: list, wl: dict, stream: cj.Dataset, tracer=None,
              seconds: float | None = None, points: int | None = None) -> ServeRun:
    """Closed loop, one client: score item i with method i mod M of model
    set (i div M) mod S, one at a time, predict_interval -> adjust(full) ->
    midpoint.  With ``seconds`` it stops at the first full cycle over model
    sets and methods after that time once ``min_points`` are served;
    otherwise it serves exactly ``points``."""
    tracer = tracer or NullTracer()
    Z = stream.logits
    raw = stream.raw_scores
    scale = stream.scale
    policy = cj.AdjustmentPolicy.full(scale)
    methods = wl["methods"]
    cycle = len(methods) * len(model_sets)
    run = ServeRun()
    t0 = time.perf_counter()
    for i in itertools.count():
        if points is not None:
            if i >= points:
                break
        elif i >= wl["min_points"] and i % cycle == 0 and time.perf_counter() - t0 >= seconds:
            break
        m = methods[i % len(methods)]
        k = (i // len(methods)) % len(model_sets)
        row = i % len(Z)
        p0 = time.perf_counter()
        try:
            with tracer.span(f"conformal.predict_interval.{m}"):
                iv = cj.predict_interval(model_sets[k][m], Z[row], raw[row])
            with tracer.span("adjust.adjust"):
                adjusted = cj.adjust(iv, scale, policy)
            with tracer.span("adjust.midpoint"):
                mid = cj.midpoint(adjusted)
        except Exception as exc:  # a failed point is counted and reported
            run.failures.append((k, m, row, str(exc)))
            continue
        run.latency_ms.append(1000.0 * (time.perf_counter() - p0))
        run.points.append((k, m, row, iv.lo, iv.hi, mid))
    run.wall_s = time.perf_counter() - t0
    return run


def traced_serve(path, wl: dict, seed: int, stream: cj.Dataset, points: int, tracer: Tracer):
    """Set-up and the serve loop under tracing, for a fixed point count."""
    t0 = time.perf_counter()
    with patched_estimators(tracer):
        _, _, model_sets = setups(wl, path, seed, tracer)
        run = run_serve(model_sets, wl, stream, tracer, points=points)
    run.wall_s = time.perf_counter() - t0
    tracer.counts["adjust.calls"] += tracer.calls["adjust.adjust"]  # one span per call here
    return run


def check_serve(wl: dict, run: ServeRun, model_sets: list, stream: cj.Dataset) -> list:
    """Single-point intervals must equal batch predict_intervals on the
    same rows, and every midpoint must lie on the scale range."""
    problems = [f"point failed: {f}" for f in run.failures[:3]]
    if len(run.points) < wl["min_points"]:
        problems.append(f"{len(run.points)} points served, fewer than {wl['min_points']}")
    Z = stream.logits
    raw = stream.raw_scores
    tol = wl["agreement_tolerance"]
    scale = stream.scale
    for k, models in enumerate(model_sets):
        for m in wl["methods"]:
            served = [p for p in run.points if p[:2] == (k, m)]
            if not served:
                continue
            rows = np.asarray([p[2] for p in served])
            batch = cj.predict_intervals(models[m], Z[rows], raw[rows])
            for (_, _, row, lo, hi, _), b in zip(served, batch):
                if not (abs(lo - b.lo) <= tol and abs(hi - b.hi) <= tol):
                    problems.append(f"{m} set {k} row {row}: single [{lo}, {hi}] != batch [{b.lo}, {b.hi}]")
                    break
    for _, m, row, _, _, mid in run.points:
        if not (math.isfinite(mid) and scale.min <= mid <= scale.max):
            problems.append(f"{m} row {row}: midpoint {mid} off the scale")
            break
    return problems


def check_same_points(untraced: ServeRun, traced: ServeRun) -> list:
    if untraced.points != traced.points:
        return ["traced serve loop does not reproduce the untraced intervals"]
    return []
