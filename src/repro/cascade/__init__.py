"""Adaptive multi-fidelity screening cascade.

Screen every die with the cheap analytic engine, calibrate the
predictive per-(voltage, fault-signature) DeltaT response curves
through every stage of the fidelity ladder, and escalate only
ambiguous TSVs (near-band, low-agreement, novel-response, or
preflight-flagged) -- with a bounded escape rate relative to the
top-stage verdict.  See
:class:`~repro.cascade.cascade.CascadeScreen` and DESIGN.md Sec. 3.7.
"""

from repro.cascade.cascade import CascadeScreen, CascadeState
from repro.cascade.characterize import (
    StageBand,
    characterization_cap_factors,
    characterization_samples,
    characterize_stage,
    default_calibration_signatures,
    measure_pending,
    quant_guard,
    transfer_stage,
)
from repro.cascade.policy import (
    CascadeConfig,
    DieDecision,
    EscalationReason,
    TsvDecision,
    parse_die_decision,
)
from repro.cascade.predictor import (
    CalibrationTable,
    PredictedVerdict,
    SignatureCurve,
    TailFit,
    binomial_upper_bound,
    normal_quantile,
)

__all__ = [
    "CalibrationTable",
    "CascadeConfig",
    "CascadeScreen",
    "CascadeState",
    "DieDecision",
    "EscalationReason",
    "PredictedVerdict",
    "SignatureCurve",
    "StageBand",
    "TailFit",
    "TsvDecision",
    "binomial_upper_bound",
    "characterization_cap_factors",
    "characterization_samples",
    "characterize_stage",
    "default_calibration_signatures",
    "measure_pending",
    "normal_quantile",
    "parse_die_decision",
    "quant_guard",
    "transfer_stage",
]
