"""Quick check of the benchmark itself, at tiny sizes (about fifteen seconds).

    python3 confbench/check.py

It runs every workload with and without tracing on tiny inputs and checks
that the result line names every metric of BENCHMARK.json with its unit;
that each output check rejects a deliberately wrong output; and that the
benchmark fails without printing a result where the confjudge sources are
missing.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "eval-readme": {"n": 200, "min_seeds": 1, "setup_reps": 1, "coverage_tolerance": 0.3},
    "eval-wide": {"n": 400, "min_seeds": 1, "setup_reps": 1, "coverage_tolerance": 0.3},
    "serve-point": {"n": 200, "setup_reps": 2, "stream_n": 64, "min_points": 16},
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
CHECK_DIR = run.ROOT / ".confbench" / "check"


def tiny_workloads() -> dict:
    out = copy.deepcopy(run.WORKLOADS)
    for name, sizes in TINY.items():
        out[name].update(sizes)
    return out


def run_tiny(workloads, name: str, trace: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                        workloads=workloads)
    return code, json.loads(buf.getvalue().splitlines()[-1])


def check_metrics_printed(failures: list) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if sorted(w["name"] for w in bench["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from spec.json")
    documented = set()
    for key in run.SPEC["per_layer"]:
        documented |= {key.replace("<method>", m) for m in run.WORKLOADS["eval-readme"]["methods"]}
    if documented != set(wanted[1]) or not set(wanted[0]) <= set(run.SPEC["end_to_end"]):
        failures.append("spec.json does not document exactly the metrics of BENCHMARK.json")
    workloads = tiny_workloads()
    for name in sorted(workloads):
        for trace in (0, 1):
            code, result = run_tiny(workloads, name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{name} --trace {trace}"
            if code != 0 or set(result) != RESULT_KEYS or result["correct"] is not True:
                failures.append(f"{where}: exit {code}, result {sorted(result)}, correct {result.get('correct')}")
            if got != wanted[trace]:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}, "
                                f"units {sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                failures.append(f"{where}: a metric value is not a number")


def check_rejections(failures: list) -> None:
    import workloads as w

    def expect_rejected(label, problems):
        if not problems:
            failures.append(f"wrong output accepted: {label}")

    wls = tiny_workloads()
    wl = wls["eval-wide"]
    ds = w.generate(wl, 3)
    good = w.run_eval(ds, wl, [5, 6])
    if w.check_eval(wl, good):
        failures.append(f"correct eval output rejected: {w.check_eval(wl, good)}")
    bad = dataclasses.replace(good, rows=good.rows[1:])
    expect_rejected("eval row missing", w.check_eval(wl, bad))
    low = [dataclasses.replace(r, coverage=0.0) if r.method == "lvd" else r for r in good.rows]
    expect_rejected("eval coverage too low", w.check_eval(wl, dataclasses.replace(good, rows=low)))
    expect_rejected("eval error cell", w.check_eval(wl, dataclasses.replace(good, errors={("lvd", 5): "boom"})))
    shifted = [dataclasses.replace(r, mean_width=r.mean_width + 1e-12) if i == 0 else r
               for i, r in enumerate(good.rows)]
    expect_rejected("traced row differs", w.check_same_rows(good, dataclasses.replace(good, rows=shifted)))

    wl = wls["serve-point"]
    _, _, models = w.setups(wl, _write(w, wl), 3)
    stream = w.generate(wl, 3 + w.STREAM_SEED_OFFSET, wl["stream_n"])
    good = w.run_serve(models, wl, stream, points=wl["min_points"])
    if w.check_serve(wl, good, models, stream):
        failures.append(f"correct serve output rejected: {w.check_serve(wl, good, models, stream)}")
    k, m, row, lo, hi, mid = good.points[1]
    moved = good.points[:1] + [(k, m, row, lo - 1e-6, hi, mid)] + good.points[2:]
    expect_rejected("single-point interval differs from batch",
                    w.check_serve(wl, dataclasses.replace(good, points=moved), models, stream))
    off = good.points[:1] + [(k, m, row, lo, hi, stream.scale.max + 1.0)] + good.points[2:]
    expect_rejected("midpoint off the scale", w.check_serve(wl, dataclasses.replace(good, points=off), models, stream))
    expect_rejected("too few points",
                    w.check_serve(wl, dataclasses.replace(good, points=good.points[:-1]), models, stream))
    expect_rejected("traced point differs", w.check_same_points(good, dataclasses.replace(good, points=moved)))


def _write(w, wl):
    path = CHECK_DIR / "samples.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    w.cj.write_samples(path, w.generate(wl, 3))
    return path


def check_fails_without_sources(failures: list) -> None:
    """Run the command where only BENCHMARK.json and the benchmark are."""
    bare = CHECK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    bench = json.loads((bare / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        out = subprocess.run(bench["command"] + ["--workload", "eval-readme", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        failures.append(f"without sources: exit {out.returncode}, stdout {out.stdout[-200:]!r}")


def main() -> int:
    if not run._import_confjudge():
        return 2
    failures = []
    try:
        check_metrics_printed(failures)
        check_rejections(failures)
        check_fails_without_sources(failures)
    finally:
        shutil.rmtree(CHECK_DIR, ignore_errors=True)
    for f in failures:
        print(f"FAIL: {f}")
    print("benchmark check: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
