"""Cyclicity classification for polynomials without bidisk zeros.

The decision rule, for p with no zeros inside the bidisk:

* alpha <= 1: cyclic regardless of torus zeros;
* 1 < alpha <= 2: cyclic exactly when the torus zero set is empty or finite;
* alpha > 2: cyclic exactly when the torus zero set is empty.

A zero inside the open bidisk always defeats cyclicity.  The rule covers
products through ``product_rule`` (a product is cyclic exactly when every
factor is).  ``corroborate`` runs the full pipeline: torus
classification, zero search, prediction, a distance scan with a decay
label, and the evaluation lower bound, a gate on every scan row, when it
applies; the report records whether the empirical label agrees with the
prediction.  A refused torus class ends the run before the search.

The one-variable case follows the same rule: a factor z - a with |a| = 1
has a line of torus zeros (not cyclic once alpha > 1), while |a| > 1 keeps
the torus clear and stays cyclic at every alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

from .approximant import (
    AGREE_TOL,
    DecayVerdict,
    decay_diagnostic,
    distance_scan,
    evaluation_bound_certificate,
    ScanRow,
)
from .errors import DegenerateInputError, NumericalError
from .poly import Poly2, coeff_norm
from .spaces import iso
from .zeroset import (
    BidiskZeroReport,
    TorusZeroClass,
    bidisk_zero_search,
    torus_zeros,
)

__all__ = [
    "Prediction",
    "predict",
    "product_rule",
    "ClassificationReport",
    "corroborate",
]

# heuristic minimum moduli below this share of the coefficient norm, 100
# times the search's certification tolerance, cannot exclude an interior zero
NOISE_FLOOR = 1e-6


@dataclass(frozen=True)
class Prediction:
    verdict: Literal["cyclic", "not_cyclic", "not_applicable"]
    reason: str


def predict(p: Poly2, alpha: float, torus: TorusZeroClass, bidisk: BidiskZeroReport) -> Prediction:
    """Predicted cyclicity of p in the iso(alpha) space."""
    if bidisk.kind == "zero_found":
        return Prediction("not_cyclic", "zero found inside the bidisk")
    floor = NOISE_FLOOR * coeff_norm(p)
    if bidisk.min_modulus <= floor:
        return Prediction(
            "not_applicable",
            "bidisk search inconclusive: smallest modulus "
            f"{bidisk.min_modulus:.3e} is within the noise floor {floor:.3e}",
        )
    if alpha <= 1.0:
        return Prediction("cyclic", "no bidisk zero and alpha <= 1")
    if alpha <= 2.0:
        if torus.kind in ("empty", "finite"):
            return Prediction("cyclic", "alpha <= 2 and at most finitely many torus zeros")
        return Prediction("not_cyclic", "infinitely many torus zeros and alpha > 1")
    if torus.kind == "empty":
        return Prediction("cyclic", "alpha > 2 and no torus zeros")
    return Prediction("not_cyclic", "torus zeros defeat cyclicity for alpha > 2")


def product_rule(factors: Sequence[Prediction]) -> Prediction:
    """Combine factor predictions: a product is cyclic iff every factor is."""
    if not factors:
        raise DegenerateInputError("product rule needs at least one factor")
    for f in factors:
        if f.verdict == "not_cyclic":
            return Prediction("not_cyclic", "some factor is not cyclic")
    for f in factors:
        if f.verdict == "not_applicable":
            return Prediction("not_applicable", "some factor could not be classified")
    return Prediction("cyclic", "every factor is cyclic")


@dataclass(frozen=True)
class ClassificationReport:
    p: Poly2
    alpha: float
    bidisk: BidiskZeroReport
    torus: TorusZeroClass
    predicted: Prediction
    empirical: Optional[DecayVerdict]
    certificate: Optional[float]
    consistent: Optional[bool]
    scan: tuple[ScanRow, ...] = ()


def corroborate(
    p: Poly2,
    alpha: float,
    n_max: int = 40,
    family: Literal["total", "diagonal"] = "total",
) -> ClassificationReport:
    """Predict cyclicity and cross-check against the distance sequence.

    The empirical label never overrides the prediction; "consistent" only
    reports whether the two point the same way.  A cyclic prediction is
    contradicted by a plateau, a non-cyclic one by a decaying sequence;
    an inconclusive label is consistent with either.  A distance below the
    evaluation bound (by over one part in 1e9) raises ``NumericalError``.
    """
    torus = torus_zeros(p)
    bidisk = bidisk_zero_search(p)
    prediction = predict(p, alpha, torus, bidisk)

    scan = tuple(distance_scan(p, iso(alpha), n_max, family=family))
    certificate = None
    if alpha > 2.0 and torus.kind != "empty":
        certificate = evaluation_bound_certificate(alpha)
        for row in scan:
            if row.distance < certificate * (1.0 - AGREE_TOL):
                raise NumericalError(
                    f"evaluation-bound certificate violated: d_{row.n} = "
                    f"{row.distance:.15e} below the bound {certificate:.15e}"
                )

    empirical: Optional[DecayVerdict] = None
    if len(scan) >= 8:
        empirical = decay_diagnostic([r.distance_squared for r in scan])

    consistent: Optional[bool] = None
    if empirical is not None and prediction.verdict != "not_applicable":
        if prediction.verdict == "cyclic":
            consistent = empirical.label != "plateau"
        else:
            consistent = empirical.label != "decaying"

    return ClassificationReport(
        p=p,
        alpha=alpha,
        bidisk=bidisk,
        torus=torus,
        predicted=prediction,
        empirical=empirical,
        certificate=certificate,
        consistent=consistent,
        scan=scan,
    )
