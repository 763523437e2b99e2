"""Synthetic judge-data generator with analytically known conditional noise.

Samples are i.i.d. by construction, so any split is exchangeable and the
marginal coverage guarantee is checkable at desk scale.  A latent quality is
drawn uniformly from the label grid, the logit vector is a peaked profile
around it, and the label is the quality plus noise, snapped back to the grid.
The returned oracle retains the per-sample latent state and exposes the true
conditional quantiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, LabelScale, ValidationError
from .ratings import rating_values
from .special import norm_ppf

__all__ = ["Homoscedastic", "Heteroscedastic", "Asymmetric", "GeneratorSpec", "SynthOracle", "generate"]


@dataclass(frozen=True)
class Homoscedastic:
    """Constant label noise."""

    sigma: float = 0.5


@dataclass(frozen=True)
class Heteroscedastic:
    """Noise scale grows linearly with the latent quality's position on the
    scale: sigma * (0.25 + 1.5 * t) with t in [0, 1].  Splitting the scale at
    its midpoint gives a low-noise and a high-noise region."""

    sigma: float = 0.5


@dataclass(frozen=True)
class Asymmetric:
    """Labels sit ``bias`` above the latent quality (the judge under-reads
    the truth by the bias).  The latent support is restricted so the shift
    stays on the scale."""

    bias: float = 1.0
    sigma: float = 0.25


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n: int
    k: int = 5
    noise: object = field(default_factory=Homoscedastic)
    scale: LabelScale = field(default_factory=lambda: LabelScale(1.0, 5.0, 1.0))
    peak_sharpness: float = 2.0
    logit_noise: float = 0.3

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("n must be positive")
        if self.k < 2:
            raise ValidationError("k must be at least 2")
        sigma = getattr(self.noise, "sigma", None)
        if sigma is None or sigma < 0:
            raise ValidationError("noise sigma must be >= 0")


@dataclass(frozen=True)
class SynthOracle:
    """Per-sample latent state plus the noise law, enough to compute true
    conditional quantiles and region labels for locality checks."""

    noise: object
    scale: LabelScale
    latent: np.ndarray
    sigma: np.ndarray
    shift: float

    def quantile(self, tau: float) -> np.ndarray:
        """True tau-quantile of the (pre-snap) label for every sample."""
        return self.latent + self.shift + self.sigma * norm_ppf(tau)

    def regions(self) -> np.ndarray:
        """Boolean region split at the scale midpoint (True = upper half)."""
        return self.latent >= (self.scale.min + self.scale.max) / 2.0

    def to_json(self) -> str:
        doc = {
            "noise": type(self.noise).__name__.lower(),
            "params": {k: getattr(self.noise, k) for k in self.noise.__dataclass_fields__},
            "scale": self.scale.to_dict(),
            "shift": self.shift,
        }
        return json.dumps(doc)


def _noise_params(noise, q: np.ndarray, scale: LabelScale):
    if isinstance(noise, Homoscedastic):
        return np.full(len(q), noise.sigma), 0.0
    if isinstance(noise, Heteroscedastic):
        t = (q - scale.min) / (scale.max - scale.min)
        return noise.sigma * (0.25 + 1.5 * t), 0.0
    if isinstance(noise, Asymmetric):
        return np.full(len(q), noise.sigma), noise.bias
    raise ValidationError(f"unknown noise kind {type(noise).__name__}")


def generate(spec: GeneratorSpec):
    """Draw a dataset and its oracle.  Identical specs yield identical data."""
    rng = np.random.default_rng(spec.seed)
    scale = spec.scale
    labels_grid = scale.labels()

    support = labels_grid
    if isinstance(spec.noise, Asymmetric):
        lo = scale.min - min(spec.noise.bias, 0.0)
        hi = scale.max - max(spec.noise.bias, 0.0)
        support = labels_grid[(labels_grid >= lo - 1e-9) & (labels_grid <= hi + 1e-9)]
        if support.size == 0:
            raise ValidationError("bias leaves no admissible latent labels")
    q = rng.choice(support, size=spec.n)

    ratings = rating_values(scale, spec.k)
    z = np.abs(ratings[None, :] - q[:, None])
    np.multiply(-spec.peak_sharpness, z, out=z)
    if spec.logit_noise > 0:
        z += rng.normal(0.0, spec.logit_noise, size=z.shape)

    sigma, shift = _noise_params(spec.noise, q, scale)
    y_cont = q + shift + sigma * rng.standard_normal(spec.n)
    y = scale.nearest_label(y_cont)

    raw = ratings[np.argmax(z, axis=1)]
    dataset = Dataset(tuple(f"s{i:06d}" for i in range(spec.n)), z, raw, y, scale)
    oracle = SynthOracle(noise=spec.noise, scale=scale, latent=q, sigma=sigma, shift=shift)
    return dataset, oracle
