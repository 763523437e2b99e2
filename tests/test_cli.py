import json

import numpy as np
import pytest

from confjudge.cli import main
from confjudge.core import ValidationError

REFERENCE_LOGITS = (-12.69, -9.06, -5.06, -1.06, -0.44)


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def synth_file(tmp_path):
    path = tmp_path / "samples.jsonl"
    code = run("synth", "--noise", "homoscedastic", "--sigma", "0.5", "--n", "400",
               "--seed", "3", "-o", str(path))
    assert code == 0
    return path


def write_transcripts(path, rows):
    with open(path, "w") as fh:
        for rec in rows:
            fh.write(json.dumps(rec) + "\n")


def reference_transcript(rid="93_10_COT2", label=14 / 3):
    alts = [{"text": str(r + 1), "logprob": REFERENCE_LOGITS[r]} for r in range(5)]
    return {
        "id": rid,
        "tokens": [
            {"text": "Rating", "logprob": -0.3},
            {"text": ":", "logprob": -0.2},
            {"text": "5", "logprob": -0.44, "alternatives": alts},
        ],
        "declared_score": 5,
        "label": label,
        "meta": {"dimension": "consistency"},
    }


class TestSynthCommand:
    def test_writes_samples_and_oracle(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run("synth", "--n", "1000", "--seed", "1", "-o", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1000
        oracle = json.loads((tmp_path / "d.oracle.json").read_text())
        assert oracle["noise"] == "homoscedastic"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("synth", "--n", "50", "--seed", "9", "-o", str(a))
        run("synth", "--n", "50", "--seed", "9", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestExtractCommand:
    def test_reference_logits_roundtrip(self, tmp_path):
        transcripts = tmp_path / "t.jsonl"
        write_transcripts(transcripts, [reference_transcript()])
        out = tmp_path / "s.jsonl"
        code = run("extract", str(transcripts), "-o", str(out),
                   "--scale-step", str(1 / 3))
        assert code == 0
        rec = json.loads(out.read_text().splitlines()[0])
        np.testing.assert_allclose(rec["logits"], REFERENCE_LOGITS, atol=1e-9)
        assert rec["raw_score"] == 5.0

    def test_empty_input_exits_nonzero(self, tmp_path, capsys):
        transcripts = tmp_path / "t.jsonl"
        transcripts.write_text("")
        out = tmp_path / "s.jsonl"
        code = run("extract", str(transcripts), "-o", str(out))
        assert code == 2
        assert "no samples" in capsys.readouterr().err

    def test_exclusions_report(self, tmp_path):
        transcripts = tmp_path / "t.jsonl"
        rows = [
            reference_transcript("a", label=5.0),
            reference_transcript("b", label=4.0),
            {"id": "c", "tokens": [{"text": "nothing", "logprob": -0.1}], "label": 3.0},
        ]
        write_transcripts(transcripts, rows)
        out = tmp_path / "s.jsonl"
        code = run("extract", str(transcripts), "-o", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 2
        excl = json.loads((tmp_path / "s.exclusions.json").read_text())
        assert excl == [{"id": "c", "reason": "unlocatable"}]

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        transcripts = tmp_path / "t.jsonl"
        transcripts.write_text("{bad json\n")
        code = run("extract", str(transcripts), "-o", str(tmp_path / "s.jsonl"))
        assert code == 2
        assert "line 1" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_single_method_single_seed(self, synth_file, tmp_path):
        out = tmp_path / "run"
        code = run("evaluate", str(synth_file), "--methods", "split_abs", "--seeds", "1",
                   "--alpha", "0.1", "--out-dir", str(out), "--jobs", "1")
        assert code == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "method,seed,policy,mean_width,coverage"
        assert len(lines) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runs"][0]["command"] == "evaluate"
        assert list(manifest["runs"][0]["inputs"].values())[0]

    def test_ten_row_file_single_cell(self, tmp_path):
        samples = tmp_path / "ten.jsonl"
        assert run("synth", "--n", "10", "--seed", "2", "-o", str(samples)) == 0
        out = tmp_path / "run"
        code = run("evaluate", str(samples), "--methods", "split_abs", "--seeds", "1",
                   "--alpha", "0.1", "--out-dir", str(out), "--jobs", "1")
        assert code == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("split_abs,1,none,")

    def test_rerun_byte_identical(self, synth_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        runs = {
            "eval.csv": ("evaluate", str(synth_file), "--methods", "split_abs,ordinal_aps",
                         "--seeds", "1..3", "--jobs", "1"),
            "midpoints.csv": ("midpoints", str(synth_file), "--seeds", "1,2"),
            "sweep.csv": ("sweep", str(synth_file), "--method", "split_abs", "--seeds", "1..3",
                          "--fractions", "0.01,0.5,1.0"),
        }
        for csv, args in runs.items():
            assert run(*args, "--out-dir", str(out1)) == 0
            assert run(*args, "--out-dir", str(out2)) == 0
            assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes(), csv

    def test_adjusted_rows_dominate_continuous(self, synth_file, tmp_path):
        args = ("evaluate", str(synth_file), "--methods", "split_abs,ordinal_rc",
                "--seeds", "1..4", "--jobs", "1")
        assert run(*args, "--adjust", "none", "--out-dir", str(tmp_path / "plain")) == 0
        assert run(*args, "--adjust", "nearest", "--lambda", "full",
                   "--out-dir", str(tmp_path / "adj")) == 0

        def rows(p):
            out = {}
            for line in (p / "eval.csv").read_text().splitlines()[1:]:
                method, seed, _, width, cov = line.split(",")
                out[(method, seed)] = float(cov)
            return out

        plain = rows(tmp_path / "plain")
        adjusted = rows(tmp_path / "adj")
        assert plain.keys() == adjusted.keys()
        for key, cov in plain.items():
            assert adjusted[key] >= cov

    def test_unknown_method_is_usage_error(self, synth_file, tmp_path, capsys):
        code = run("evaluate", str(synth_file), "--methods", "bogus",
                   "--out-dir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "split_abs" in err and "r2ccp" in err

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("evaluate", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path)) == 2

    def test_failed_cells_exit_2_after_writing_outputs(self, synth_file, tmp_path, monkeypatch, capsys):
        def failing(*args, **kw):
            raise ValidationError("alpha must lie in (0, 1)")

        monkeypatch.setattr("confjudge.conformal.calibrate", failing)
        out = tmp_path / "run"
        code = run("evaluate", str(synth_file), "--methods", "r2ccp,split_abs", "--seeds", "1,2",
                   "--out-dir", str(out), "--jobs", "1")
        assert code == 2
        assert "cell r2ccp/1: alpha must lie in (0, 1)" in capsys.readouterr().err
        assert (out / "eval.csv").read_text().splitlines() == ["method,seed,policy,mean_width,coverage"]
        errors = json.loads((out / "manifest.json").read_text())["runs"][0]["errors"]
        assert sorted(errors) == ["r2ccp/1", "r2ccp/2", "split_abs/1", "split_abs/2"]

    @pytest.mark.parametrize("command", ["evaluate", "midpoints", "sweep", "human-baseline"])
    @pytest.mark.parametrize("alpha", ["1.5", "1", "0", "-0.1", "nan", "x"])
    def test_alpha_outside_unit_interval_is_usage_error(self, tmp_path, capsys, command, alpha):
        # the input does not exist, so exit 1 shows the flag was rejected
        # before any read; midpoints and sweep used to read, split and fit,
        # then exit 2
        out = tmp_path / "run"
        code = run(command, str(tmp_path / "missing.jsonl"), "--alpha", alpha, "--out-dir", str(out))
        assert code == 1
        assert "--alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_error_in_cell_exits_3(self, synth_file, tmp_path, monkeypatch, capsys):
        def broken(*args, **kw):
            raise KeyError("forest_lo")

        monkeypatch.setattr("confjudge.conformal.calibrate", broken)
        code = run("evaluate", str(synth_file), "--methods", "split_abs", "--seeds", "1",
                   "--out-dir", str(tmp_path / "run"), "--jobs", "1")
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", ["{not json", '{"id": "t1"}'])
    def test_malformed_exclusions_sidecar_is_data_error(self, synth_file, tmp_path, capsys, sidecar):
        path = synth_file.with_suffix(".exclusions.json")
        path.write_text(sidecar)
        code = run("evaluate", str(synth_file), "--methods", "split_abs", "--seeds", "1",
                   "--out-dir", str(tmp_path / "run"), "--jobs", "1")
        assert code == 2
        assert str(path) in capsys.readouterr().err


class TestOtherCommands:
    def test_sweep_row_count(self, synth_file, tmp_path):
        out = tmp_path / "run"
        code = run("sweep", str(synth_file), "--method", "split_abs",
                   "--fractions", "0.25,0.5,0.75,1.0", "--seeds", "1..3",
                   "--out-dir", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "fraction,mean_coverage,std_coverage"
        assert len(lines) == 5

    def test_het_groups_by_dimension(self, synth_file, tmp_path):
        out = tmp_path / "run"
        assert run("het", str(synth_file), "--out-dir", str(out)) == 0
        lines = (out / "het.csv").read_text().splitlines()
        assert lines[0] == "dimension,test,lm_stat,lm_p,f_stat,f_p"
        assert {ln.split(",")[1] for ln in lines[1:]} == {"bp", "white"}

    def test_midpoints(self, synth_file, tmp_path):
        out = tmp_path / "run"
        assert run("midpoints", str(synth_file), "--seeds", "1", "--out-dir", str(out)) == 0
        lines = (out / "midpoints.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_human_baseline(self, tmp_path):
        ann = tmp_path / "ann.jsonl"
        with open(ann, "w") as fh:
            rng = np.random.default_rng(0)
            for i in range(60):
                base = rng.integers(1, 5)
                fh.write(json.dumps({"id": f"h{i}", "annotations": [int(base), int(base), int(base) + 1]}) + "\n")
        out = tmp_path / "run"
        assert run("human-baseline", str(ann), "--seeds", "1..3", "--out-dir", str(out)) == 0
        lines = (out / "human.csv").read_text().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("flags", [("--scale-step", "7"), ("--inner-train-fraction", "0.9"),
                                       ("--scale-min", "0")])
    def test_human_baseline_rejects_flags_it_does_not_read(self, tmp_path, capsys, flags):
        # these were registered and ignored, so the run exited 0
        ann = tmp_path / "ann.jsonl"
        ann.write_text("".join(json.dumps({"id": f"h{i}", "annotations": [i % 5 + 1, 3]}) + "\n" for i in range(8)))
        assert run("human-baseline", str(ann), *flags, "--out-dir", str(tmp_path)) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert run("human-baseline", str(ann), "--seeds", "1", "--out-dir", str(tmp_path)) == 0

    def test_manifest_appends(self, synth_file, tmp_path):
        out = tmp_path / "run"
        run("evaluate", str(synth_file), "--methods", "split_abs", "--seeds", "1",
            "--out-dir", str(out), "--jobs", "1")
        run("het", str(synth_file), "--out-dir", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert [r["command"] for r in manifest["runs"]] == ["evaluate", "het"]

    def test_usage_error_on_bad_seeds(self, synth_file, tmp_path):
        assert run("evaluate", str(synth_file), "--seeds", "", "--out-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("command, flags, env", [
        ("evaluate", ("--seeds", "1..x"), None),
        ("evaluate", ("--adjust", "nearest", "--lambda", "abc"), None),
        # a NaN lambda used to run and write nearest(nan) rows, and 0.9 > step/2
        # was filed as a data error in every cell after fitting
        ("evaluate", ("--adjust", "nearest", "--lambda", "nan"), None),
        ("evaluate", ("--adjust", "nearest", "--lambda", "-0.1"), None),
        ("evaluate", ("--adjust", "nearest", "--lambda", "0.9"), None),
        ("evaluate", ("--adjust", "nearest", "--lambda", "inf"), None),
        ("evaluate", ("--jobs", "-3"), None),
        ("evaluate", (), "abc"),
        # rejected by the library's run check, which the CLI calls before any read
        ("evaluate", ("--jobs", "0"), None),
        ("evaluate", (), "0"),
        ("sweep", ("--method", "bogus"), None),
        # an empty list used to write a header-only sweep.csv and exit 0, and
        # 0.5,2 to fit every 0.5 cell, then exit 2
        ("sweep", ("--fractions", ""), None),
        ("sweep", ("--fractions", "0.5,2"), None),
        ("sweep", ("--fractions", "0,0.5"), None),
        # a split fraction outside (0, 1) used to be a data error (exit 2),
        # raised only after the input was read
        ("evaluate", ("--calib-fraction", "1.5"), None),
        ("evaluate", ("--calib-fraction", "0"), None),
        ("evaluate", ("--inner-train-fraction", "1"), None),
        ("evaluate", ("--inner-train-fraction", "nan"), None),
        ("midpoints", ("--calib-fraction", "-0.2"), None),
        ("midpoints", ("--inner-train-fraction", "0"), None),
        ("sweep", ("--calib-fraction", "inf"), None),
        ("sweep", ("--inner-train-fraction", "2"), None),
        ("human-baseline", ("--calib-fraction", "1.0"), None),
    ])
    def test_bad_flags_are_usage_errors_before_any_read(self, tmp_path, monkeypatch, capsys, command, flags, env):
        # each used to end as an internal error (exit 3) or, for --jobs -3,
        # to run serially without a word; the samples file does not exist,
        # so exit 1 also shows that nothing was read
        if env is not None:
            monkeypatch.setenv("CONFJUDGE_JOBS", env)
        assert run(command, str(tmp_path / "missing.jsonl"), *flags, "--out-dir", str(tmp_path)) == 1
        assert "usage error" in capsys.readouterr().err

    def test_jobs_env_override(self, monkeypatch):
        from confjudge.cli import _default_jobs

        monkeypatch.setenv("CONFJUDGE_JOBS", "3")
        assert _default_jobs() == 3
        monkeypatch.delenv("CONFJUDGE_JOBS")
        assert _default_jobs() >= 1

    def test_extraction_exclusions_flow_into_reports(self, tmp_path):
        transcripts = tmp_path / "t.jsonl"
        rows = [reference_transcript(f"t{i}", label=float(1 + i % 5)) for i in range(12)]
        rows.append({"id": "broken", "tokens": [{"text": "nothing", "logprob": -0.1}], "label": 3.0})
        write_transcripts(transcripts, rows)
        samples = tmp_path / "s.jsonl"
        assert run("extract", str(transcripts), "-o", str(samples)) == 0
        out = tmp_path / "run"
        assert run("evaluate", str(samples), "--methods", "ordinal_aps", "--seeds", "1",
                   "--out-dir", str(out), "--jobs", "1") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = next(r for r in manifest["runs"] if r["command"] == "evaluate")
        assert entry["excluded"] == 1


# the fifth line of an annotation file; "45" used to be read as [4.0, 5.0]
# and the run to exit 0, [true, 4] as [1.0, 4.0]
_BAD_ANNOTATIONS = {
    "a numeric string": {"id": "h4", "annotations": "45"},
    "a bool among the annotations": {"id": "h4", "annotations": [True, 4]},
    "null": {"id": "h4", "annotations": None},
    "a nested list": {"id": "h4", "annotations": [[4, 5]]},
    "record a list": [4, 5],
    "an annotation too large for a float": {"id": "h4", "annotations": [10 ** 400, 4]},
}
# an exclusions sidecar; each used to be counted, or (an object) rejected
_BAD_SIDECARS = {
    "a string": '"45"',
    "a bool": "true",
    "null": "null",
    "a nested list": '[["t1", "unlocatable"]]',
    "an entry not an object": "[1]",
    "a bool id": '[{"id": true, "reason": "unlocatable"}]',
    "a 400-digit reason": f'[{{"id": "t1", "reason": {10 ** 400}}}]',
}
# a manifest.json already in --out-dir; "{not json" used to make evaluate
# write eval.csv, then exit 3
_BAD_MANIFESTS = {
    "not JSON": "{not json",
    "a list": "[]",
    "no runs": "{}",
    "runs a string": '{"runs": "45"}',
    "runs null": '{"runs": null}',
    "a run a bool": '{"runs": [true]}',
    "a run a nested list": '{"runs": [[1]]}',
}


class TestInputFileTypes:
    @pytest.mark.parametrize("record", list(_BAD_ANNOTATIONS.values()), ids=list(_BAD_ANNOTATIONS))
    def test_bad_annotation_record_names_its_line(self, tmp_path, capsys, record):
        ann = tmp_path / "ann.jsonl"
        good = [{"id": f"h{i}", "annotations": [i % 5 + 1, 3]} for i in range(4)]
        ann.write_text("".join(json.dumps(r) + "\n" for r in [*good, record, *good]))
        assert run("human-baseline", str(ann), "--seeds", "1", "--out-dir", str(tmp_path / "run")) == 2
        assert "line 5: malformed annotation record" in capsys.readouterr().err

    @pytest.mark.parametrize("text", list(_BAD_SIDECARS.values()), ids=list(_BAD_SIDECARS))
    def test_bad_exclusions_sidecar_names_its_path(self, synth_file, tmp_path, capsys, text):
        path = synth_file.with_suffix(".exclusions.json")
        path.write_text(text)
        code = run("evaluate", str(synth_file), "--methods", "split_abs", "--seeds", "1",
                   "--out-dir", str(tmp_path / "run"), "--jobs", "1")
        assert code == 2
        assert f"{path}: malformed exclusions sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("text", list(_BAD_MANIFESTS.values()), ids=list(_BAD_MANIFESTS))
    def test_bad_manifest_names_its_path(self, synth_file, tmp_path, capsys, text):
        # each command used to write its outputs before reading the manifest
        transcripts = tmp_path / "t.jsonl"
        write_transcripts(transcripts, [reference_transcript("a", label=5.0)])
        commands = {
            "evaluate": lambda out: ("evaluate", str(synth_file), "--methods", "split_abs", "--seeds", "1",
                                     "--out-dir", str(out), "--jobs", "1"),
            "extract": lambda out: ("extract", str(transcripts), "-o", str(out / "s.jsonl")),
            "synth": lambda out: ("synth", "--n", "50", "-o", str(out / "s.jsonl")),
        }
        for command, argv in commands.items():
            out = tmp_path / command
            out.mkdir()
            (out / "manifest.json").write_text(text)
            assert run(*argv(out)) == 2, command
            assert str(out / "manifest.json") in capsys.readouterr().err
            assert (out / "manifest.json").read_text() == text
            assert [p.name for p in out.iterdir()] == ["manifest.json"], command

    @pytest.mark.parametrize("record", [{"meta": [1, 2]}, {"label": True}])
    def test_extract_bad_transcript_is_data_error(self, tmp_path, capsys, record):
        # a meta of [1, 2] used to be an internal error (exit 3)
        transcripts = tmp_path / "t.jsonl"
        write_transcripts(transcripts, [reference_transcript("a", label=5.0),
                                        {**reference_transcript("b"), **record}])
        assert run("extract", str(transcripts), "-o", str(tmp_path / "s.jsonl")) == 2
        assert "line 2: malformed transcript record" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{four", '["1", "2", "3", "4", "5"]',
                                      json.dumps({**{str(r): r for r in range(1, 6)}, "four": 4.7})])
    def test_extract_bad_synonyms_is_data_error(self, tmp_path, capsys, text):
        # the first two used to be internal errors (exit 3); a rating of 4.7
        # was read as 4 and the run exited 0
        transcripts = tmp_path / "t.jsonl"
        write_transcripts(transcripts, [reference_transcript("a", label=5.0)])
        synonyms = tmp_path / "synonyms.json"
        synonyms.write_text(text)
        assert run("extract", str(transcripts), "--synonyms", str(synonyms), "-o", str(tmp_path / "s.jsonl")) == 2
        assert str(synonyms) in capsys.readouterr().err

    @pytest.mark.parametrize("entries", [{"label": True}, {"raw_score": 10 ** 400}, {"logits": "12345"}])
    def test_evaluate_bad_sample_is_data_error(self, tmp_path, capsys, entries):
        # label true used to be read as 1.0, and a 400-digit raw_score to be
        # an internal error (exit 3)
        samples = tmp_path / "s.jsonl"
        samples.write_text(json.dumps({"id": "a", "logits": [0.0] * 5, "raw_score": 3.0, "label": 1.0,
                                       **entries}) + "\n")
        code = run("evaluate", str(samples), "--methods", "split_abs", "--seeds", "1",
                   "--out-dir", str(tmp_path / "run"), "--jobs", "1")
        assert code == 2
        assert "line 1: malformed sample record" in capsys.readouterr().err


class TestRepeatedSeedsAndMethods:
    @pytest.mark.parametrize("command, flags", [
        # 3..2 used to be dropped, so the run had seed 1 only
        ("evaluate", ("--seeds", "1,3..2")),
        # a repeated seed used to count twice in midpoints and sweep
        ("midpoints", ("--seeds", "1,1")),
        ("sweep", ("--seeds", "1..3,2")),
        ("evaluate", ("--seeds", "1,1")),
        ("human-baseline", ("--seeds", "2,2")),
        # every cqr cell used to be fitted twice
        ("evaluate", ("--methods", "cqr,cqr")),
    ])
    def test_usage_error_before_any_read(self, tmp_path, capsys, command, flags):
        assert run(command, str(tmp_path / "missing.jsonl"), *flags, "--out-dir", str(tmp_path)) == 1
        assert "usage error" in capsys.readouterr().err

    def test_single_seed_range_is_one_seed(self, synth_file, tmp_path):
        assert run("midpoints", str(synth_file), "--seeds", "4..4", "--out-dir", str(tmp_path)) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["runs"][-1]["config"]["seeds"] == [4]
