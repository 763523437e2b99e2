import hashlib
import json

import numpy as np
import pytest

from confjudge.analysis import bp_test
from confjudge.core import LabelScale, ValidationError
from confjudge.synth import Asymmetric, GeneratorSpec, Heteroscedastic, Homoscedastic, generate

LIKERT = LabelScale(1, 5, 1)


class TestGenerate:
    def test_deterministic(self):
        spec = GeneratorSpec(seed=3, n=200, noise=Homoscedastic(0.4))
        a, _ = generate(spec)
        b, _ = generate(spec)
        np.testing.assert_array_equal(a.logits, b.logits)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("spec, digest", [
        (GeneratorSpec(seed=7, n=300, k=13, noise=Heteroscedastic(0.5), scale=LabelScale(1, 5, 1 / 3)),
         "1d6e64e432b45c79ddb6e339a1bb21478f21eed9a0506a436b91ccdd96ca27ab"),
        (GeneratorSpec(seed=11, n=200, noise=Asymmetric(1.0, 0.25)),
         "b0666126246e74b73b91b34bfb0e161d48a043649a67dec7d5c5710d43582c13"),
    ])
    def test_columns_keep_their_bits(self, spec, digest):
        # sha256 of the logit, raw-score and label bytes: building the logit
        # matrix in place must not move a bit
        ds, _ = generate(spec)
        h = hashlib.sha256()
        for column in (ds.logits, ds.raw_scores, ds.labels):
            h.update(column.tobytes())
        assert h.hexdigest() == digest

    def test_noiseless_limit_label_equals_raw_score(self):
        ds, _ = generate(GeneratorSpec(seed=4, n=300, noise=Homoscedastic(0.0), logit_noise=0.0))
        np.testing.assert_array_equal(ds.labels, ds.raw_scores)

    def test_labels_on_grid(self):
        thirds = LabelScale(1, 5, 1 / 3)
        ds, _ = generate(GeneratorSpec(seed=5, n=400, noise=Homoscedastic(1.0), scale=thirds))
        for y in ds.labels:
            assert thirds.on_grid(y)

    def test_asymmetric_bias_shifts_labels(self):
        # law of large numbers: the judge under-reads the truth by the bias
        ds, _ = generate(GeneratorSpec(seed=6, n=10_000, noise=Asymmetric(1.0, 0.25)))
        assert np.mean(ds.raw_scores - ds.labels) == pytest.approx(-1.0, abs=0.05)

    def test_heteroscedastic_detected_by_bp(self):
        ds, _ = generate(GeneratorSpec(seed=7, n=500, noise=Heteroscedastic(0.8)))
        assert bp_test(ds.logits, ds.labels).lm_p < 0.01

    def test_validation(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(seed=1, n=0)
        with pytest.raises(ValidationError):
            GeneratorSpec(seed=1, n=10, noise=Homoscedastic(-1.0))


class TestOracle:
    def test_quantiles_bracket_labels(self):
        spec = GeneratorSpec(seed=8, n=4000, noise=Homoscedastic(0.5))
        ds, oracle = generate(spec)
        lo = oracle.quantile(0.05)
        hi = oracle.quantile(0.95)
        inside = np.mean((ds.labels >= lo - 0.5) & (ds.labels <= hi + 0.5))
        assert inside > 0.9
        np.testing.assert_allclose(oracle.quantile(0.5), oracle.latent, atol=1e-9)

    def test_regions_split_at_midpoint(self):
        ds, oracle = generate(GeneratorSpec(seed=9, n=500))
        region = oracle.regions()
        assert np.all(oracle.latent[region] >= 3.0)
        assert np.all(oracle.latent[~region] < 3.0)

    def test_descriptor_json(self):
        _, oracle = generate(GeneratorSpec(seed=10, n=50, noise=Heteroscedastic(0.7)))
        doc = json.loads(oracle.to_json())
        assert doc["noise"] == "heteroscedastic"
        assert doc["params"]["sigma"] == 0.7
        assert doc["scale"] == {"min": 1.0, "max": 5.0, "step": 1.0}
