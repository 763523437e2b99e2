"""From judge transcripts to rating-logit features.

A judge's response carries the rating somewhere in its token stream.  The
extractor finds the rating token (falling back to the corpus-wide modal
position when a transcript mentions several numbers), then sums the
probability of every surface form that means the same rating (" 4", "4",
"four") before taking logs.
"""

import math

from confjudge import LIKERT_5
from confjudge.extract import SynonymTable, TranscriptRecord, TranscriptToken, extract_dataset

table = SynonymTable.default(5)

def judge_response(rid, texts, final_alts, label):
    tokens = [TranscriptToken(t, -0.2) for t in texts[:-1]]
    tokens.append(TranscriptToken(texts[-1], final_alts[0][1], tuple(final_alts)))
    return TranscriptRecord(rid, tuple(tokens), declared_score=None, label=label)

records = [
    judge_response("r1", ["Rating", ":", "4"],
                   [("4", math.log(0.62)), (" 4", math.log(0.18)),
                    ("four", math.log(0.05)), ("5", math.log(0.10)), ("3", math.log(0.05))],
                   label=4.0),
    judge_response("r2", ["I", "rate", "this", "5"],
                   [("5", math.log(0.8)), ("4", math.log(0.2))], label=5.0),
    # mentions a 3 early on, so the modal final-token position disambiguates
    judge_response("r3", ["3", "points", "considered,", "score", "2"],
                   [("2", math.log(0.7)), ("1", math.log(0.3))], label=2.0),
]

ds, exclusions = extract_dataset(records, table, k=5, scale=LIKERT_5)
print(f"extracted {len(ds)} samples, {len(exclusions)} exclusions\n")
for sid, z, raw, label in zip(ds.ids, ds.logits, ds.raw_scores, ds.labels):
    probs = [f"{math.exp(v):.2f}" for v in z]
    print(f"{sid}: raw {raw:.0f}, label {label:.0f}, p(1..5) = {probs}")

print("\nnote r1: the mass on '4', ' 4' and 'four' was pooled into rating 4")
