import json
import math

import numpy as np
import pytest

from confjudge.core import LabelScale, ValidationError
from confjudge.extract import (
    SynonymTable,
    TranscriptRecord,
    TranscriptToken,
    build_feature,
    extract_dataset,
    extract_samples,
    locate_rating_positions,
    read_transcripts,
)

LIKERT = LabelScale(1, 5, 1)
TABLE = SynonymTable.default(5)


def tok(text, logprob=-0.1, alts=()):
    return TranscriptToken(text, logprob, tuple(alts))


def record(rid, texts, rating_alts=None, label=3.0, declared=None):
    tokens = []
    for i, t in enumerate(texts):
        alts = rating_alts if (rating_alts and i == len(texts) - 1) else ()
        tokens.append(tok(t, alts=alts))
    return TranscriptRecord(rid, tuple(tokens), declared_score=declared, label=label)


class TestSynonymTable:
    def test_default_words_and_digits(self):
        assert TABLE.lookup("4") == 4
        assert TABLE.lookup(" 4") == 4
        assert TABLE.lookup("Two") == 2
        assert TABLE.lookup("five") == 5
        assert TABLE.lookup("banana") is None

    def test_digit_form_required(self):
        with pytest.raises(ValidationError, match="digit form"):
            SynonymTable({"1": 1, "2": 2, "3": 3, "4": 4}, 5)

    def test_conflicting_surface_rejected(self):
        mapping = {str(r): r for r in range(1, 6)}
        mapping["two"] = 2
        mapping[" two"] = 3
        with pytest.raises(ValidationError, match="two ratings"):
            SynonymTable(mapping, 5)


class TestLocate:
    def test_unique_match(self):
        recs = [record("a", ["Rating", ":", "4"])]
        positions, exclusions = locate_rating_positions(recs, TABLE)
        assert positions == [2] and not exclusions

    def test_synonym_match(self):
        recs = [record("a", ["the", "score", "is", "five"])]
        positions, _ = locate_rating_positions(recs, TABLE)
        assert positions == [3]

    def test_modal_offset_resolves_ambiguity(self):
        # 90 records carry the rating as the final token; ambiguous records
        # must resolve to the final-token position (offset-from-end 0)
        recs = [record(f"u{i}", ["text", "more", str(i % 5 + 1)]) for i in range(90)]
        ambiguous = [record(f"a{i}", ["3", "filler", "5"]) for i in range(10)]
        positions, exclusions = locate_rating_positions(recs + ambiguous, TABLE)
        assert not exclusions
        for pos in positions[90:]:
            assert pos == 2

    def test_tie_breaks_toward_end(self):
        recs = [
            record("a", ["2", "x", "4", "y"]),
            record("b", ["x", "3", "y", "5"]),
        ]
        positions, _ = locate_rating_positions(recs, TABLE)
        # offsets 1 and 3 tie with one count each; nearer the end wins
        assert positions[0] == 2
        assert positions[1] == 3

    def test_unlocatable_flagged(self):
        recs = [record("a", ["no", "rating", "here"]), record("b", ["score", "4"])]
        positions, exclusions = locate_rating_positions(recs, TABLE)
        assert positions[0] is None
        assert exclusions == [("a", "unlocatable")]

    def test_deterministic(self):
        recs = [record(f"r{i}", ["1", "pad", "5"]) for i in range(7)]
        a, _ = locate_rating_positions(recs, TABLE)
        b, _ = locate_rating_positions(recs, TABLE)
        assert a == b


class TestBuildFeature:
    def test_aggregates_equivalent_surface_forms(self):
        alts = [("4", math.log(0.7)), (" 4", math.log(0.1)), ("5", math.log(0.2))]
        rec = record("a", ["Rating", "4"], rating_alts=alts)
        z = build_feature(rec, 1, TABLE, 5)
        assert z[3] == pytest.approx(math.log(0.8))
        assert z[4] == pytest.approx(math.log(0.2))
        for i in (0, 1, 2):
            assert z[i] == pytest.approx(math.log(1e-12))

    def test_certainty_case(self):
        rec = TranscriptRecord("a", (tok("3", 0.0),), None, 3.0)
        z = build_feature(rec, 0, TABLE, 5)
        assert z[2] == pytest.approx(0.0)
        for i in (0, 1, 3, 4):
            assert z[i] == pytest.approx(math.log(1e-12))

    def test_direct_logit_storage(self):
        # a source that already carries one alternative per rating keeps
        # its log-probabilities bit-for-bit
        values = (-12.69, -9.06, -5.06, -1.06, -0.44)
        alts = [(str(r + 1), values[r]) for r in range(5)]
        rec = record("a", ["Rating", ":", "5"], rating_alts=alts)
        z = build_feature(rec, 2, TABLE, 5)
        np.testing.assert_allclose(z, values, atol=1e-12)

    def test_permutation_invariant(self):
        alts = [("4", math.log(0.5)), ("5", math.log(0.3)), ("four", math.log(0.1))]
        rec_a = record("a", ["4"], rating_alts=alts)
        rec_b = record("b", ["4"], rating_alts=list(reversed(alts)))
        za = build_feature(rec_a, 0, TABLE, 5)
        zb = build_feature(rec_b, 0, TABLE, 5)
        np.testing.assert_allclose(za, zb, atol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = rng.dirichlet(np.ones(6))
            alts = [(str(r + 1), math.log(raw[r])) for r in range(5)]
            rec = record("a", ["x", "3"], rating_alts=alts)
            z = build_feature(rec, 1, TABLE, 5)
            assert np.exp(z).sum() <= 1.0 + 1e-9

    def test_no_rating_mass(self):
        rec = TranscriptRecord("a", (tok("the"),), None, 3.0)
        with pytest.raises(ValidationError, match="no rating mass"):
            build_feature(rec, 0, TABLE, 5)


class TestExtractSamples:
    def test_declared_score_wins_over_token(self):
        rec = record("a", ["Rating", "4"], label=3.0, declared=2.0)
        ds, _ = extract_samples([rec], TABLE, 5, LIKERT)
        assert ds.raw_scores[0] == 2.0

    def test_token_rating_used_when_no_declared(self):
        rec = record("a", ["Rating", "4"], label=3.0)
        ds, _ = extract_samples([rec], TABLE, 5, LIKERT)
        assert ds.raw_scores[0] == 4.0

    def test_missing_label_excluded(self):
        rec = record("a", ["Rating", "4"], label=None)
        ds, exclusions = extract_samples([rec], TABLE, 5, LIKERT)
        assert len(ds) == 0
        assert exclusions == [("a", "no label")]

    def test_invalid_rows_excluded(self):
        recs = [
            record("a", ["Rating", "4"], label=3.5),
            record("b", ["no", "score"]),
            record("c", ["Rating", "4"], label=None),
            record("d", ["Rating", "4"], declared=9.0),
            record("e", ["Rating", "5"]),
            record("f", ["Rating", "4"]),
            record("e", ["Rating", "3"]),
        ]
        ds, exclusions = extract_samples(recs, TABLE, 5, LIKERT)
        assert ds.ids == ("e", "f")
        np.testing.assert_array_equal(ds.raw_scores, [5.0, 4.0])
        assert exclusions == [
            ("b", "unlocatable"),
            ("c", "no label"),
            ("a", "sample 'a': label 3.5 off the scale grid"),
            ("d", "sample 'd': raw_score 9.0 outside scale range"),
            ("e", "duplicate sample id 'e'"),
        ]

    def test_three_records_one_unlocatable(self):
        recs = [
            record("a", ["Rating", "4"]),
            record("b", ["no", "score"]),
            record("c", ["5"]),
        ]
        ds, exclusions = extract_dataset(recs, TABLE, 5, LIKERT)
        assert len(ds) == 2
        assert exclusions == [("b", "unlocatable")]


class TestTranscriptIO:
    def test_roundtrip_reading(self, tmp_path):
        rec = {
            "id": "t1",
            "tokens": [
                {"text": "Rating", "logprob": -0.2},
                {"text": "4", "logprob": -0.1,
                 "alternatives": [{"text": "4", "logprob": -0.1}, {"text": "5", "logprob": -2.5}]},
            ],
            "declared_score": 4,
            "label": 4.0,
            "meta": {"dimension": "consistency"},
        }
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        records = read_transcripts(path)
        assert records[0].id == "t1"
        assert records[0].tokens[1].alternatives[1] == ("5", -2.5)
        assert records[0].meta["dimension"] == "consistency"

    def test_line_numbered_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "tokens": []}\n{oops\n')
        with pytest.raises(ValidationError, match="line 2"):
            read_transcripts(path)

    def test_empty_token_text_rejected(self, tmp_path):
        rec = {"id": "a", "tokens": [{"text": "", "logprob": -0.5}]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            read_transcripts(path)


_GOOD_TRANSCRIPT = {"id": "t", "tokens": [{"text": "4", "logprob": -0.1,
                                            "alternatives": [{"text": "5", "logprob": -2.5}]}],
                    "declared_score": 4, "label": 4.0, "meta": {"dimension": "consistency"}}


def _with_token(**entries):
    return {**_GOOD_TRANSCRIPT, "tokens": [{**_GOOD_TRANSCRIPT["tokens"][0], **entries}]}


# the second line of a transcript file; each used to load, or to raise an
# error other than ValidationError (meta [1, 2] an AttributeError)
_BAD_TRANSCRIPTS = {
    "meta a list": {**_GOOD_TRANSCRIPT, "meta": [1, 2]},
    "logprob a numeric string": _with_token(logprob="-0.1"),
    "logprob a bool": _with_token(logprob=True),
    "logprob null": _with_token(logprob=None),
    "alternative logprob a numeric string": _with_token(alternatives=[{"text": "5", "logprob": "-2.5"}]),
    "alternatives a string": _with_token(alternatives="5"),
    "token text a number": _with_token(text=4),
    "declared_score a numeric string": {**_GOOD_TRANSCRIPT, "declared_score": "4"},
    "label a bool": {**_GOOD_TRANSCRIPT, "label": True},
    "label too large for a float": {**_GOOD_TRANSCRIPT, "label": 10 ** 400},
    "tokens a string": {**_GOOD_TRANSCRIPT, "tokens": "4"},
    "tokens a nested list": {**_GOOD_TRANSCRIPT, "tokens": [[{"text": "4", "logprob": -0.1}]]},
    "id null": {**_GOOD_TRANSCRIPT, "id": None},
    "record a list": [1, 2],
}


class TestTranscriptRecordTypes:
    @pytest.mark.parametrize("record", list(_BAD_TRANSCRIPTS.values()), ids=list(_BAD_TRANSCRIPTS))
    def test_bad_record_names_its_line(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(_GOOD_TRANSCRIPT) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="line 2: malformed transcript record"):
            read_transcripts(path)

    def test_good_record_reads(self, tmp_path):
        path = tmp_path / "good.jsonl"
        path.write_text(json.dumps(_GOOD_TRANSCRIPT) + "\n")
        (rec,) = read_transcripts(path)
        assert rec == TranscriptRecord("t", (TranscriptToken("4", -0.1, (("5", -2.5),)),), 4.0, 4.0,
                                       {"dimension": "consistency"})
        assert type(rec.declared_score) is float


_DIGITS = {str(r): r for r in range(1, 6)}
# a synonym file; each used to load (4.7 read as 4, "4" and true as 4 and 1)
# or to raise an error other than ValidationError
_BAD_SYNONYMS = {
    "not JSON": "{four",
    "a list": json.dumps(list(_DIGITS)),
    "a fractional rating": json.dumps({**_DIGITS, "four": 4.7}),
    "a numeric-string rating": json.dumps({**_DIGITS, "four": "4"}),
    "a bool rating": json.dumps({**_DIGITS, "one": True}),
    "a null rating": json.dumps({**_DIGITS, "four": None}),
    "a nested-list rating": json.dumps({**_DIGITS, "four": [[4]]}),
    "a 400-digit rating": json.dumps({**_DIGITS, "four": 10 ** 400}),
}


class TestSynonymFile:
    @pytest.mark.parametrize("text", list(_BAD_SYNONYMS.values()), ids=list(_BAD_SYNONYMS))
    def test_bad_file_names_its_path(self, tmp_path, text):
        path = tmp_path / "synonyms.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match="synonyms.json"):
            SynonymTable.from_json(path, 5)

    def test_good_file_reads(self, tmp_path):
        path = tmp_path / "synonyms.json"
        path.write_text(json.dumps({**_DIGITS, "four": 4}))
        assert SynonymTable.from_json(path, 5).lookup("Four") == 4
