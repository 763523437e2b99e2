"""Conformal prediction intervals for rating-based LLM judges.

The pipeline: extract rating-token logits from judge transcripts, calibrate
one of eight conformal interval methods on held-out labeled data, snap the
continuous intervals to the ordinal rating grid, and report coverage, width,
and midpoint accuracy over seeded splits.
"""

from .adjust import EXPAND, NEAREST, SHRINK, AdjustmentPolicy, adjust, adjust_all, fallback_label, midpoint
from .analysis import (
    EvalReport,
    EvalRow,
    HetTestResult,
    MidpointRow,
    bp_test,
    calibration_sweep,
    evaluate,
    human_baseline,
    kendall_tau_b,
    mae,
    midpoint_report,
    mse,
    pearson,
    spearman,
    weighted_average,
    white_test,
)
from .conformal import (
    METHODS,
    CalibratedModel,
    calibrate,
    calibrate_ordinal_aps,
    calibrate_ordinal_rc,
    model_from_json,
    model_to_json,
    predict_interval,
    predict_intervals,
    score_samples,
)
from .core import (
    GPA_THIRDS,
    LIKERT_5,
    Dataset,
    Interval,
    Intervals,
    LabelScale,
    SplitSpec,
    ValidationError,
    conformal_quantile,
    read_samples,
    split,
    to_fine_grid,
    write_samples,
)
from .estimators import (
    BinClassifier,
    KernelSimilarity,
    OlsFit,
    QuantileForest,
    RidgePredictor,
    ols,
)
from .extract import SynonymTable, TranscriptRecord, build_feature, extract_samples, locate_rating_positions
from .ratings import rating_values, softmax
from .synth import Asymmetric, GeneratorSpec, Heteroscedastic, Homoscedastic, SynthOracle, generate

__version__ = "0.1.0"
