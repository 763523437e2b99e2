"""Calibrate every interval method on synthetic judge data and compare
width against coverage.

The generator draws a latent quality uniformly from the rating grid, emits a
peaked logit profile around it, and labels each item with the quality plus
noise.  Samples are i.i.d., so the split-conformal guarantee applies: at
alpha = 0.1 every method should cover about 90% of test labels, and the
interesting differences are in how wide the intervals must be to get there.
"""

import confjudge as cj

ds, _ = cj.generate(cj.GeneratorSpec(seed=7, n=1200, noise=cj.Homoscedastic(0.5)))
train, calib, test = cj.split(ds, cj.SplitSpec(seed=7))
print(f"{len(train)} train / {len(calib)} calibration / {len(test)} test samples\n")

print(f"{'method':<12} {'mean width':>10} {'coverage':>9}")
for method in cj.METHODS:
    kw = {"point_predictor": "ridge"} if method == "split_abs" else {}
    hyper = {"n_trees": 60} if "cqr" in method else None
    model = cj.calibrate(method, train, calib, alpha=0.1, hyper=hyper, **kw)
    intervals = cj.predict_intervals(model, test.logits, test.raw_scores)
    width = intervals.width.mean()
    coverage = intervals.covers(test.labels).mean()
    print(f"{method:<12} {width:>10.3f} {coverage:>9.2%}")

print("\nOne test item in detail:")
model = cj.calibrate("r2ccp", train, calib, alpha=0.1)
iv = cj.predict_interval(model, test.logits[0])
print(f"  judge said {test.raw_scores[0]:.0f}, humans said {test.labels[0]:.2f}, "
      f"interval [{iv.lo:.2f}, {iv.hi:.2f}]")
