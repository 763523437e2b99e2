"""Parse logged judge transcripts into K-dimensional rating-logit vectors.

The rating token is located per record; records carrying several candidate
positions resolve to the corpus-wide modal offset-from-end (ratings
conventionally appear at the end of the judge's response).  Probabilities of
surface forms with the same meaning (" 4", "4", "four") are aggregated per
rating before taking logs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import (Dataset, LabelScale, ValidationError, integer, or_none, read_json, read_json_lines, read_meta,
                   real, row_problems, string_id)
from .ratings import rating_values

__all__ = [
    "TranscriptRecord",
    "TranscriptToken",
    "SynonymTable",
    "read_transcripts",
    "locate_rating_positions",
    "build_feature",
    "extract_samples",
]

EPSILON = 1e-12

_NUMBER_WORDS = (
    "one", "two", "three", "four", "five", "six", "seven",
    "eight", "nine", "ten", "eleven", "twelve", "thirteen",
)


@dataclass(frozen=True)
class TranscriptToken:
    text: str
    logprob: float
    alternatives: tuple = ()


@dataclass(frozen=True)
class TranscriptRecord:
    id: str
    tokens: tuple
    declared_score: float | None = None
    label: float | None = None
    meta: dict = field(default_factory=dict)


def _normalize(text: str) -> str:
    # tokenizers emit " 4" and "4" as distinct surface forms
    return text.lstrip().lower()


_rating = integer(1)  # a synonym's rating, at most k


class SynonymTable:
    """Surface form -> rating value (1..K).  Every rating must at least have
    its digit form, and no surface form may map to two ratings."""

    def __init__(self, mapping: dict, k: int):
        self.k = k
        self.mapping = {}
        for surface, rating in mapping.items():
            norm = _normalize(surface)
            rating = _rating(rating, f"rating of {surface!r}")
            if rating > k:
                raise ValidationError(f"rating {rating} outside 1..{k}")
            if norm in self.mapping and self.mapping[norm] != rating:
                raise ValidationError(f"surface form {surface!r} maps to two ratings")
            self.mapping[norm] = rating
        for r in range(1, k + 1):
            if self.mapping.get(str(r)) != r:
                raise ValidationError(f"rating {r} is missing its digit form")

    def lookup(self, text: str) -> int | None:
        return self.mapping.get(_normalize(text))

    @classmethod
    def default(cls, k: int) -> "SynonymTable":
        mapping = {str(r): r for r in range(1, k + 1)}
        for r in range(1, min(k, len(_NUMBER_WORDS)) + 1):
            mapping[_NUMBER_WORDS[r - 1]] = r
        return cls(mapping, k)

    @classmethod
    def from_json(cls, path, k: int) -> "SynonymTable":
        """The table of the JSON object at ``path``, from surface form to rating."""
        return read_json(path, lambda mapping: cls(mapping, k), "synonym table")


_logprob = real()
_score = or_none(real())  # a transcript's declared score and label


def _token_text(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"token text must be a non-empty string, got {value!r}")
    return value


def _transcript_token(tok: dict) -> TranscriptToken:
    alts = tuple((_token_text(a["text"]), _logprob(a["logprob"], "logprob"))
                 for a in tok.get("alternatives", []))
    return TranscriptToken(_token_text(tok["text"]), _logprob(tok["logprob"], "logprob"), alts)


def _transcript_record(rec: dict) -> TranscriptRecord:
    return TranscriptRecord(id=string_id(rec["id"]), tokens=tuple(map(_transcript_token, rec["tokens"])),
                            declared_score=_score(rec.get("declared_score"), "declared_score"),
                            label=_score(rec.get("label"), "label"), meta=read_meta(rec.get("meta", {})))


def read_transcripts(path) -> list:
    """Load transcript records from JSONL with line-numbered errors."""
    return [record for _, record in read_json_lines(path, _transcript_record, "transcript")]


def _candidates(record: TranscriptRecord, table: SynonymTable) -> list:
    return [i for i, tok in enumerate(record.tokens) if table.lookup(tok.text) is not None]


def locate_rating_positions(records, table: SynonymTable):
    """Per-record position of the rating token.

    Records with exactly one candidate take it; records with several take
    the candidate at the corpus-wide modal offset-from-end (ties prefer the
    offset nearer the end).  Records with none come back as None plus an
    exclusion entry.
    """
    all_candidates = [_candidates(rec, table) for rec in records]
    offset_counts = Counter()
    for rec, cands in zip(records, all_candidates):
        for i in cands:
            offset_counts[len(rec.tokens) - 1 - i] += 1

    positions = []
    exclusions = []
    for rec, cands in zip(records, all_candidates):
        if not cands:
            positions.append(None)
            exclusions.append((rec.id, "unlocatable"))
        elif len(cands) == 1:
            positions.append(cands[0])
        else:
            best = min(cands, key=lambda i: (-offset_counts[len(rec.tokens) - 1 - i],
                                             len(rec.tokens) - 1 - i))
            positions.append(best)
    return positions, exclusions


def build_feature(record: TranscriptRecord, pos: int, table: SynonymTable, k: int) -> np.ndarray:
    """Log-probability vector over the k ratings at one token position.

    Probability mass of every surface form mapping to the same rating is
    summed; ratings with no mass at all get ln(1e-12) so the vector stays
    finite.
    """
    token = record.tokens[pos]
    entries = {}
    for text, lp in token.alternatives:
        # distinct surface forms (" 4" vs "4") each carry their own mass;
        # dedupe only exact repeats of the same literal token
        if text not in entries:
            entries[text] = lp
    # transcripts that log no alternatives still contribute the sampled token
    entries.setdefault(token.text, token.logprob)
    mass = np.zeros(k)
    for text, lp in entries.items():
        rating = table.lookup(text)
        if rating is not None:
            mass[rating - 1] += math.exp(lp)
    if not np.any(mass > 0):
        raise ValidationError("no rating mass")
    out = np.full(k, math.log(EPSILON))
    nz = mass > 0
    out[nz] = np.log(mass[nz])
    return out


def extract_samples(records, table: SynonymTable, k: int, scale: LabelScale):
    """Turn transcripts into a dataset; returns (dataset, exclusions).

    The raw score is the declared score when present, otherwise the rating
    of the located token mapped into scale units.  Records without a human
    label or rating mass, and then records that break a row invariant of
    :func:`~confjudge.core.row_problems`, are excluded with the reason; the
    dataset may be empty.
    """
    positions, exclusions = locate_rating_positions(records, table)
    values = rating_values(scale, k)
    rows = []
    for rec, pos in zip(records, positions):
        if pos is None:
            continue
        if rec.label is None:
            exclusions.append((rec.id, "no label"))
            continue
        try:
            feature = build_feature(rec, pos, table, k)
        except ValidationError as exc:
            exclusions.append((rec.id, str(exc)))
            continue
        if rec.declared_score is not None:
            raw = float(rec.declared_score)
        else:
            raw = float(values[table.lookup(rec.tokens[pos].text) - 1])
        rows.append((rec.id, feature, raw, rec.label, rec.meta))
    ids, logits, raw_scores, labels, meta = list(zip(*rows)) or [()] * 5
    logits = np.reshape(np.array(logits, dtype=float), (len(ids), k))
    raw_scores, labels = np.array(raw_scores, dtype=float), np.array(labels, dtype=float)
    problems = dict(row_problems(ids, logits, raw_scores, labels, scale))
    exclusions += [(ids[r], reason) for r, reason in problems.items()]
    keep = [r for r in range(len(ids)) if r not in problems]
    dataset = Dataset([ids[r] for r in keep], logits[keep], raw_scores[keep], labels[keep], scale,
                      [meta[r] for r in keep])
    return dataset, exclusions


def extract_dataset(records, table: SynonymTable, k: int, scale: LabelScale):
    """:func:`extract_samples` that raises ValidationError when no record
    becomes a sample."""
    dataset, exclusions = extract_samples(records, table, k, scale)
    if not len(dataset):
        raise ValidationError("no samples")
    return dataset, exclusions
