"""Numerical-hazard containment for faulted forward passes.

Flipped exponent bits routinely drive activations to ``inf`` and logits to
``NaN`` (Beyer et al., 2020, observe exactly this across TensorFlow fault
injectors). Left alone, those values poison the campaign statistic two
ways: ``argmax`` over a NaN row returns an essentially arbitrary class, so
hazardous samples masquerade as ordinary (mis)classifications, and every
overflowing pass sprays ``RuntimeWarning`` noise over stderr.

:class:`NumericalHazardGuard` contains both failure modes. During a
faulted evaluation it

1. routes floating-point error events (overflow / invalid / divide) raised
   inside the forward pass to counters instead of warnings — the flag
   record of how hard the arithmetic was being pushed;
2. classifies each evaluation row into **correct**, **misclassified**, or
   **hazard** (any non-finite logit). A hazard row counts as an error — a
   NaN logit can never be the right answer — but *deterministically*, not
   via whatever class NaN ``argmax`` happens to emit, and it is tracked
   separately so campaigns can distinguish silent misclassification from
   numerical blow-up. ``correct + error = 1`` per evaluation, with
   ``hazard ⊆ error``.

The resulting :class:`HazardReport` rides on every
:class:`~repro.core.campaign.CampaignResult` (``campaign.hazard``),
surfaces in ``summary_row()``/sweep tables as ``hazard_pct``, and
round-trips through the campaign journal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.train.metrics import classification_error

__all__ = ["HazardReport", "NumericalHazardGuard", "hazard_aware_error"]


def _logit_array(logits) -> np.ndarray:
    if isinstance(logits, np.ndarray):
        return logits
    if hasattr(logits, "data"):  # Tensor
        return np.asarray(logits.data)
    return np.asarray(logits)


def hazard_aware_error(logits, labels) -> float:
    """Classification error with non-finite rows counted as errors.

    The pure statistic behind :meth:`NumericalHazardGuard.score` (which
    adds the bookkeeping): evaluations with fully finite logits reproduce
    :func:`~repro.train.metrics.classification_error` bit-exactly, and any
    row containing a non-finite logit counts as an error deterministically
    — never via whatever class NaN ``argmax`` happens to emit. Every
    campaign statistic path (sequential, batched, explicit DBN) shares
    this definition so their error means stay comparable.
    """
    array = _logit_array(logits)
    finite = np.isfinite(array).all(axis=1)
    if finite.all():
        return classification_error(array, labels)
    predictions = array.argmax(axis=1)
    misclassified = int(((predictions != np.asarray(labels)) & finite).sum())
    return (misclassified + int((~finite).sum())) / array.shape[0]


@dataclass(frozen=True)
class HazardReport:
    """Numerical-hazard accounting for one campaign.

    ``evaluations`` counts faulted forward passes; ``rows`` counts
    (evaluation, input) pairs — the unit the correct/misclassified/hazard
    taxonomy applies to. The ``fp_*`` fields count floating-point error
    events raised *inside* the forward passes (activation-level overflow
    included), which fire even when the damage never reaches the logits.
    """

    evaluations: int = 0
    hazard_evaluations: int = 0
    rows: int = 0
    hazard_rows: int = 0
    fp_overflow: int = 0
    fp_invalid: int = 0
    fp_divide: int = 0

    @property
    def hazard_fraction(self) -> float:
        """Fraction of evaluation rows quarantined as numerically hazardous."""
        return self.hazard_rows / self.rows if self.rows else 0.0

    @property
    def hazard_evaluation_fraction(self) -> float:
        """Fraction of forward passes with at least one hazardous row."""
        return self.hazard_evaluations / self.evaluations if self.evaluations else 0.0

    @property
    def any_hazard(self) -> bool:
        return self.hazard_rows > 0 or self.fp_overflow > 0 or self.fp_invalid > 0

    def to_dict(self) -> dict[str, int]:
        return {
            "evaluations": self.evaluations,
            "hazard_evaluations": self.hazard_evaluations,
            "rows": self.rows,
            "hazard_rows": self.hazard_rows,
            "fp_overflow": self.fp_overflow,
            "fp_invalid": self.fp_invalid,
            "fp_divide": self.fp_divide,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HazardReport":
        return cls(**{key: int(payload.get(key, 0)) for key in cls.__dataclass_fields__})

    def metrics_counters(self) -> dict[str, int]:
        """Counter increments for the campaign metrics digest.

        Namespaced views of :meth:`to_dict`, so campaign telemetry
        (``hazard.rows`` et al.) stays exactly equal to the authoritative
        per-campaign hazard accounting it is derived from.
        """
        return {f"hazard.{key}": value for key, value in self.to_dict().items()}

    def __str__(self) -> str:
        return (
            f"HazardReport({self.hazard_rows}/{self.rows} rows quarantined "
            f"[{100 * self.hazard_fraction:.2f}%], "
            f"fp events: overflow={self.fp_overflow}, invalid={self.fp_invalid}, "
            f"divide={self.fp_divide})"
        )


class NumericalHazardGuard:
    """Capture FP error events and quarantine non-finite evaluation rows.

    One guard instance accompanies one campaign execution; the injector
    installs a fresh guard per :meth:`BayesianFaultInjector.run` call and
    publishes its :meth:`report` on the returned campaign.
    """

    def __init__(self) -> None:
        self.evaluations = 0
        self.hazard_evaluations = 0
        self.rows = 0
        self.hazard_rows = 0
        self.fp_overflow = 0
        self.fp_invalid = 0
        self.fp_divide = 0

    # numpy invokes this (err_kind, flag) callback in 'call' error mode
    def _fp_event(self, kind: str, flag: int) -> None:
        if kind == "overflow":
            self.fp_overflow += 1
        elif kind == "invalid value":
            self.fp_invalid += 1
        elif kind == "divide by zero":
            self.fp_divide += 1

    def capture(self):
        """Context manager routing FP error events to counters.

        Overflow / invalid / divide-by-zero raised under this context are
        counted rather than warned; benign underflow stays ignored. The
        previous error state (and error callback) is restored on exit.
        """
        return np.errstate(
            over="call", invalid="call", divide="call", under="ignore", call=self._fp_event
        )

    def score(self, logits, labels: np.ndarray) -> float:
        """Classification error with hazardous rows contained.

        Rows whose logits contain any non-finite value always count as
        errors — a NaN output is never a correct classification — but are
        additionally quarantined into the ``hazard`` class, so the
        campaign can report how much of its error rate is numerical
        blow-up rather than silent misclassification. Evaluations with
        fully finite logits reproduce
        :func:`~repro.train.metrics.classification_error` bit-exactly.
        """
        array = _logit_array(logits)
        self.evaluations += 1
        self.rows += array.shape[0]
        finite = np.isfinite(array).all(axis=1)
        if not finite.all():
            self.hazard_rows += int((~finite).sum())
            self.hazard_evaluations += 1
        return hazard_aware_error(array, labels)

    def score_rows(self, logits, labels: np.ndarray) -> np.ndarray:
        """:meth:`score` for a stack of ``k`` evaluations in one pass.

        ``logits`` has shape ``(k, B, classes)``. Returns the ``k`` errors,
        each bit-identical to ``score(logits[i], labels)``, and leaves every
        counter exactly where ``k`` calls to :meth:`score` would: a clean
        evaluation scores ``1 - correct / B`` (as
        :func:`~repro.train.metrics.classification_error` does), a
        hazardous one ``(misclassified finite rows + hazard rows) / B``.
        """
        array = _logit_array(logits)
        labels = np.asarray(labels)
        k, batch = array.shape[:2]
        if labels.shape[0] != batch:
            raise ValueError(f"batch mismatch: {batch} logits vs {labels.shape[0]} labels")
        self.evaluations += k
        self.rows += k * batch
        hits = array.argmax(axis=2) == labels
        errors = 1.0 - hits.sum(axis=1) / batch
        if np.isfinite(array).all():
            return errors
        finite = np.isfinite(array).all(axis=2)
        hazards = batch - finite.sum(axis=1)
        hazardous = hazards > 0
        self.hazard_rows += int(hazards.sum())
        self.hazard_evaluations += int(hazardous.sum())
        wrong = (~hits & finite).sum(axis=1) + hazards
        return np.where(hazardous, wrong / batch, errors)

    def report(self) -> HazardReport:
        """Freeze the counters into an immutable report."""
        return HazardReport(
            evaluations=self.evaluations,
            hazard_evaluations=self.hazard_evaluations,
            rows=self.rows,
            hazard_rows=self.hazard_rows,
            fp_overflow=self.fp_overflow,
            fp_invalid=self.fp_invalid,
            fp_divide=self.fp_divide,
        )
