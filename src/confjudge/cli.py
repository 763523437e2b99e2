"""Command-line entry point.

Subcommands wrap the library operations into reproducible runs: every
command validates its configuration up front, writes fixed-header CSVs, and
appends a record (configuration echo, content hashes of inputs, per-cell
errors) to ``manifest.json`` in the output directory.  All randomness flows
from ``--seeds``; reruns with identical inputs are byte-identical.

Exit codes: 0 success, 1 usage, 2 data validation, 3 internal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import analysis, conformal, synth
from .adjust import AdjustmentPolicy
from .core import LabelScale, ValidationError, array, read_json, read_json_lines, read_samples, write_samples
from .extract import SynonymTable, extract_dataset, read_transcripts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _git_blob_sha1(path: Path) -> str:
    data = path.read_bytes()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def _manifest(doc: dict) -> dict:
    if not isinstance(doc["runs"], list) or not all(isinstance(run, dict) for run in doc["runs"]):
        raise TypeError("'runs' must be a list of objects")
    return doc


def _read_manifest(out_dir: Path) -> dict:
    """The ``manifest.json`` in ``out_dir``, or an empty one.  A command reads
    it before writing any output, so a malformed one leaves no file behind."""
    manifest_path = out_dir / "manifest.json"
    return read_json(manifest_path, _manifest, "manifest") if manifest_path.exists() else {"runs": []}


def _append_manifest(doc: dict, out_dir: Path, args, config: dict, inputs, outputs, **extra) -> None:
    """Append the run's entry to the manifest ``doc`` of ``out_dir`` and write
    it there: the command, its configuration, the hash of each file in
    ``inputs``, the files ``outputs`` and any ``extra`` fields."""
    doc["runs"].append({"command": args.command, "config": config,
                        "inputs": {source: _git_blob_sha1(Path(source)) for source in inputs},
                        "outputs": [str(path) for path in outputs], **extra})
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _parse_seeds(text: str) -> list:
    seeds = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ".." in part:
                a, b = map(int, part.split(".."))
                if b < a:
                    raise UsageError(f"reversed seed range {part!r}")
                seeds.extend(range(a, b + 1))
            elif part:
                seeds.append(int(part))
    except ValueError as exc:
        raise UsageError(f"bad seed list: {text!r}") from exc
    return seeds


def _parse_fractions(text: str) -> list:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"bad fraction list: {text!r}") from exc


def _open_unit(flag: str):
    """The argparse type of ``flag``, a number in (0, 1): --alpha and the split fractions."""
    def parse(text: str) -> float:
        try:
            if 0.0 < float(text) < 1.0:
                return float(text)
        except ValueError:
            pass
        raise UsageError(f"{flag} must lie in (0, 1), got {text}")
    return parse


def _scale_from(args) -> LabelScale:
    return LabelScale(args.scale_min, args.scale_max, args.scale_step)


def _policy_from(args, scale: LabelScale) -> AdjustmentPolicy | None:
    if args.adjust == "none":
        return None
    if args.adjust in ("shrink", "expand"):
        return AdjustmentPolicy(args.adjust)
    lam = args.lam
    if lam is None or lam == "full":
        return AdjustmentPolicy.full(scale)
    try:
        return AdjustmentPolicy("nearest", float(lam))
    except ValueError as exc:  # ValidationError is a ValueError
        raise UsageError(f'--lambda must be a number in [0, step/2] or "full", got {lam!r}') from exc


def _add_scale_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale-min", type=float, default=1.0)
    p.add_argument("--scale-max", type=float, default=5.0)
    p.add_argument("--scale-step", type=float, default=1.0)


def _add_seeded_flags(p: argparse.ArgumentParser) -> None:
    """The flags every seeded command reads, human-baseline included.  A
    UsageError raised by a type function passes through argparse, so a bad
    --alpha, --seeds or split fraction is rejected before any input is read."""
    p.add_argument("--alpha", type=_open_unit("--alpha"), default="0.1")
    p.add_argument("--seeds", type=_parse_seeds, default="1..30", help="e.g. 1..30 or 1,2,5")
    p.add_argument("--calib-fraction", type=_open_unit("--calib-fraction"), default="0.5")
    p.add_argument("--out-dir", default=".")


def _add_common_eval_flags(p: argparse.ArgumentParser) -> None:
    _add_seeded_flags(p)
    p.add_argument("--inner-train-fraction", type=_open_unit("--inner-train-fraction"), default="0.5")
    _add_scale_flags(p)


def build_parser() -> _Parser:
    parser = _Parser(prog="confjudge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="transcripts JSONL -> samples JSONL")
    p.add_argument("transcripts")
    p.add_argument("--synonyms", help="JSON file mapping surface forms to ratings")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--exclusions", help="where to write the exclusions report")
    _add_scale_flags(p)

    p = sub.add_parser("evaluate", help="width/coverage per method and seed")
    p.add_argument("samples")
    p.add_argument("--methods", default=",".join(conformal.METHODS))
    p.add_argument("--adjust", choices=["none", "shrink", "expand", "nearest"], default="none")
    p.add_argument("--lambda", dest="lam", default=None, help='threshold in scale units, or "full"')
    p.add_argument("--point-predictor", choices=conformal.POINT_PREDICTORS, default="raw_score")
    p.add_argument("--jobs", type=int, default=None)
    _add_common_eval_flags(p)

    p = sub.add_parser("midpoints", help="midpoint scorers vs raw score vs weighted average")
    p.add_argument("samples")
    _add_common_eval_flags(p)

    p = sub.add_parser("het", help="Breusch-Pagan and White tests per dimension")
    p.add_argument("samples")
    p.add_argument("--out-dir", default=".")
    _add_scale_flags(p)

    p = sub.add_parser("sweep", help="coverage vs calibration fraction")
    p.add_argument("samples")
    p.add_argument("--method", default="r2ccp")
    p.add_argument("--fractions", type=_parse_fractions, default="0.25,0.5,0.75,1.0")
    _add_common_eval_flags(p)

    p = sub.add_parser("synth", help="generate synthetic judge data")
    p.add_argument("--noise", choices=["homoscedastic", "heteroscedastic", "asymmetric"],
                   default="homoscedastic")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--bias", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--oracle", help="where to write the oracle descriptor JSON")
    _add_scale_flags(p)

    p = sub.add_parser("human-baseline", help="conformal interval around one random annotation")
    p.add_argument("annotations", help='JSONL with {"id", "annotations": [...]} records')
    _add_seeded_flags(p)
    return parser


def _default_jobs() -> int:
    env = os.environ.get("CONFJUDGE_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"CONFJUDGE_JOBS must be an integer, got {env!r}") from None


def _check_run(args, **kw) -> None:
    """``analysis._check_run`` on the seeded flags and ``kw``, before any
    input is read: a bad run configuration is a usage error."""
    try:
        analysis._check_run(args.seeds, args.alpha, args.calib_fraction, **kw)
    except ValidationError as exc:
        raise UsageError(str(exc)) from exc


def _load_dataset(args) -> tuple:
    """The samples, and the count of the extraction exclusions recorded next
    to them, which rides along in every downstream report."""
    dataset = read_samples(args.samples, _scale_from(args))
    sidecar = Path(args.samples).with_suffix(".exclusions.json")
    if not sidecar.exists():
        return dataset, 0
    return dataset, len(read_json(sidecar, _exclusions, "exclusions sidecar"))


def _exclusions(entries: list) -> list:
    """An exclusions sidecar's entries: objects of a string ``id`` and ``reason``."""
    if type(entries) is not list or not all(type(e["id"]) is type(e["reason"]) is str for e in entries):
        raise TypeError('expected a list of {"id", "reason"} objects of strings')
    return entries


def _write_report(args, name: str, write, rows, config: dict, source: str, **extra) -> None:
    """Write the CSV ``name`` into --out-dir with ``write`` and append the
    run's manifest entry, with the input file ``source``."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _read_manifest(out_dir)
    write(out_dir / name, rows)
    _append_manifest(manifest, out_dir, args, config, [source], [out_dir / name], **extra)


def cmd_extract(args) -> int:
    records = read_transcripts(args.transcripts)
    table = (SynonymTable.from_json(args.synonyms, args.k) if args.synonyms
             else SynonymTable.default(args.k))
    scale = _scale_from(args)
    dataset, exclusions = extract_dataset(records, table, args.k, scale)
    out = Path(args.output)
    manifest = _read_manifest(out.parent)
    write_samples(out, dataset)
    excl_path = Path(args.exclusions) if args.exclusions else out.with_suffix(".exclusions.json")
    excl_path.write_text(
        json.dumps([{"id": i, "reason": r} for i, r in exclusions], indent=2) + "\n",
        encoding="utf-8",
    )
    _append_manifest(manifest, out.parent, args,
                     {"k": args.k, "scale": scale.to_dict(), "synonyms": args.synonyms},
                     [args.transcripts], [out, excl_path], written=len(dataset), excluded=len(exclusions))
    print(f"wrote {len(dataset)} samples, {len(exclusions)} exclusions")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    jobs = _default_jobs() if args.jobs is None else args.jobs
    scale = _scale_from(args)
    policy = _policy_from(args, scale)
    run = dict(inner_train_fraction=args.inner_train_fraction, policy=policy, jobs=jobs,
               hyper={"split_abs": {"point_predictor": args.point_predictor}})
    _check_run(args, methods=methods, scale=scale, **run)
    dataset, excluded = _load_dataset(args)
    report = analysis.evaluate(dataset, methods, args.seeds, alpha=args.alpha,
                               calib_fraction=args.calib_fraction, **run)
    config = {
        "methods": methods, "seeds": args.seeds, "alpha": args.alpha,
        "adjust": args.adjust, "lambda": args.lam,
        "calib_fraction": args.calib_fraction,
        "inner_train_fraction": args.inner_train_fraction,
        "point_predictor": args.point_predictor,
        "scale": dataset.scale.to_dict(),
    }
    _write_report(
        args, "eval.csv", analysis.write_eval_csv, report.rows, config, args.samples,
        errors={f"{m}/{s}": msg for (m, s), msg in sorted(report.errors.items())},
        empty_intervals=report.empty_intervals,
        degenerate_intervals=report.degenerate_intervals,
        excluded=excluded,
    )
    for method, agg in sorted(report.aggregates.items()):
        print(f"{method}: width {agg['mean_width']:.4f} +/- {agg['std_width']:.4f}, "
              f"coverage {agg['mean_coverage']:.4%} +/- {agg['std_coverage']:.4%}")
    for (m, s), msg in sorted(report.errors.items()):
        print(f"data error: cell {m}/{s}: {msg}", file=sys.stderr)
    return EXIT_DATA if report.errors else EXIT_OK


def cmd_midpoints(args) -> int:
    _check_run(args, inner_train_fraction=args.inner_train_fraction)
    dataset, excluded = _load_dataset(args)
    rows = analysis.midpoint_report(
        dataset, args.seeds, alpha=args.alpha,
        calib_fraction=args.calib_fraction, inner_train_fraction=args.inner_train_fraction,
    )
    config = {"seeds": args.seeds, "alpha": args.alpha, "scale": dataset.scale.to_dict()}
    _write_report(args, "midpoints.csv", analysis.write_midpoints_csv, rows, config, args.samples,
                  excluded=excluded)
    for r in rows:
        print(f"{r.scorer}: mse {r.mse:.4f}, mae {r.mae:.4f}, rho {r.spearman:.4f}")
    return EXIT_OK


def cmd_het(args) -> int:
    dataset, excluded = _load_dataset(args)
    groups: dict = {}
    for row, meta in enumerate(dataset.meta):
        groups.setdefault(meta.get("dimension", "all"), []).append(row)
    entries = []
    for dim in sorted(groups):
        sub = dataset.subset(groups[dim])
        entries.append((dim, "bp", analysis.bp_test(sub.logits, sub.labels)))
        entries.append((dim, "white", analysis.white_test(sub.logits, sub.labels)))
    _write_report(args, "het.csv", analysis.write_het_csv, entries, {"scale": dataset.scale.to_dict()},
                  args.samples, excluded=excluded)
    for dim, name, res in entries:
        print(f"{dim}/{name}: LM {res.lm_stat:.3f} (p {res.lm_p:.3g}), F {res.f_stat:.3f} (p {res.f_p:.3g})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_run(args, inner_train_fraction=args.inner_train_fraction, methods=[args.method],
               fractions=args.fractions)
    dataset, excluded = _load_dataset(args)
    rows = analysis.calibration_sweep(
        dataset, args.method, args.seeds, args.fractions, alpha=args.alpha,
        calib_fraction=args.calib_fraction, inner_train_fraction=args.inner_train_fraction,
    )
    config = {"method": args.method, "seeds": args.seeds, "fractions": args.fractions,
              "alpha": args.alpha, "scale": dataset.scale.to_dict()}
    _write_report(args, "sweep.csv", analysis.write_sweep_csv, rows, config, args.samples,
                  excluded=excluded)
    for r in rows:
        print(f"fraction {r.fraction:g}: coverage {r.mean_coverage:.4f} +/- {r.std_coverage:.4f}"
              + (" (skipped)" if r.skipped else ""))
    return EXIT_OK


def cmd_synth(args) -> int:
    scale = _scale_from(args)
    if args.noise == "homoscedastic":
        noise = synth.Homoscedastic(args.sigma)
    elif args.noise == "heteroscedastic":
        noise = synth.Heteroscedastic(args.sigma)
    else:
        noise = synth.Asymmetric(args.bias, args.sigma)
    spec = synth.GeneratorSpec(seed=args.seed, n=args.n, k=args.k, noise=noise, scale=scale)
    dataset, oracle = synth.generate(spec)
    out = Path(args.output)
    manifest = _read_manifest(out.parent)
    write_samples(out, dataset)
    oracle_path = Path(args.oracle) if args.oracle else out.with_suffix(".oracle.json")
    oracle_path.write_text(oracle.to_json() + "\n", encoding="utf-8")
    config = {"noise": args.noise, "sigma": args.sigma, "bias": args.bias,
              "n": args.n, "k": args.k, "seed": args.seed, "scale": scale.to_dict()}
    _append_manifest(manifest, out.parent, args, config, [], [out, oracle_path])
    print(f"wrote {len(dataset)} samples")
    return EXIT_OK


_annotations = array(1)  # one item's annotations


def cmd_human_baseline(args) -> int:
    _check_run(args)
    annotations = [values for _, values in read_json_lines(
        args.annotations, lambda rec: _annotations(rec["annotations"], "annotations"), "annotation")]
    rows = analysis.human_baseline(annotations, alpha=args.alpha, seeds=args.seeds,
                                   calib_fraction=args.calib_fraction)
    config = {"seeds": args.seeds, "alpha": args.alpha, "calib_fraction": args.calib_fraction}
    _write_report(args, "human.csv", analysis.write_eval_csv, rows, config, args.annotations)
    widths = [r.mean_width for r in rows]
    covs = [r.coverage for r in rows]
    print(f"human baseline: width {sum(widths)/len(widths):.4f}, coverage {sum(covs)/len(covs):.4%}")
    return EXIT_OK


_COMMANDS = {
    "extract": cmd_extract,
    "evaluate": cmd_evaluate,
    "midpoints": cmd_midpoints,
    "het": cmd_het,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
    "human-baseline": cmd_human_baseline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
