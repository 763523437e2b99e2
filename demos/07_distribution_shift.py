"""Calibrate on one data distribution, evaluate on another.

The coverage guarantee assumes the calibration and test sets are
exchangeable.  Calibrating on low-noise data and scoring a noisier
distribution breaks that assumption and coverage falls below target.
Boundary adjustment often recovers a large share of it empirically (the
endpoints sit just shy of the next label), but it restores no guarantee.
The run below is the plain calibrate-on-A / evaluate-on-B protocol, no
reweighting.
"""

import confjudge as cj
from confjudge import LIKERT_5, AdjustmentPolicy, adjust_all

source, _ = cj.generate(cj.GeneratorSpec(seed=1, n=1000, noise=cj.Homoscedastic(0.35)))
shifted, _ = cj.generate(cj.GeneratorSpec(seed=2, n=1000, noise=cj.Homoscedastic(0.9)))

train, calib, in_dist_test = cj.split(source, cj.SplitSpec(seed=1))
model = cj.calibrate("split_abs", train, calib, alpha=0.1, point_predictor="ridge")
full = AdjustmentPolicy.full(LIKERT_5)


def coverage(test, adjusted=False):
    intervals = cj.predict_intervals(model, test.logits, test.raw_scores)
    if adjusted:
        intervals = adjust_all(intervals, LIKERT_5, full)
    return intervals.covers(test.labels).mean()


print(f"{'test data':<22} {'continuous':>10} {'adjusted':>9}")
print(f"{'in-distribution':<22} {coverage(in_dist_test):>10.2%} {coverage(in_dist_test, True):>9.2%}")
print(f"{'shifted (noisier)':<22} {coverage(shifted):>10.2%} {coverage(shifted, True):>9.2%}")
