"""Live per-stratum posterior telemetry — the statistical view of a campaign.

The rest of :mod:`repro.obs` watches *mechanics* (task counts, heartbeats,
FLOPs, chaos retries). This module watches the thing the campaign is
actually for: how tight the Beta posterior over the SDC rate is right
now, per stratum, where a **stratum** is one (layer selection, bit-field,
flip probability) cell — the granularity at which a budget allocator
would steer further injections.

Design, in the same spirit as :class:`~repro.obs.server.StatusTracker`:

* Delivery sites (executor absorb, journal replay, sequential loops)
  publish one ``estimate`` event per completed campaign task via
  :func:`publish_outcome`. The payload is **pure data** derived from the
  :class:`~repro.core.campaign.CampaignResult` — task index, stratum
  labels, trial count, and the indices of degraded trials — so the same
  event stream reconstructs identically from a live sink, a replayed
  ``progress.jsonl``, or a journal resume.
* :class:`EstimatorTracker` is a passive
  :class:`~repro.obs.progress.ProgressSink` whose fold is an O(1),
  idempotent, task-indexed insert. **All** statistics are computed at
  query time by replaying contributions in task-index order, so the
  estimates document is a pure function of the set of delivered outcomes
  — sequential, pooled, and SIGKILL-resumed runs produce bit-identical
  documents regardless of delivery order.
* The stopping monitor (:meth:`EstimatorTracker.report_lines`) is
  strictly *advisory*: given a :class:`StoppingTarget` (CI half-width at
  a credible mass) it names the first task index at which each stratum
  — and the whole campaign — crossed the target. Nothing here stops a
  run or touches an RNG stream; instrumented campaigns stay
  bit-identical to bare ones.

A session's :class:`~repro.obs.server.StatusTracker` owns the tracker
and feeds it every event, so ``/status``, ``/estimates``, ``repro top``
and postmortem bundles all read the same fold.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass

import numpy as np

from repro.bayes.distributions import Beta
from repro.obs.progress import ProgressEvent, ProgressSink

__all__ = [
    "EVENT_KIND",
    "DEFAULT_MASS",
    "HISTORY_POINTS",
    "StoppingTarget",
    "EstimatorTracker",
    "outcome_payload",
    "publish_outcome",
]

#: the progress-event kind carrying one campaign task's outcome counts
EVENT_KIND = "estimate"

#: credible mass used for intervals when no stopping target names one
DEFAULT_MASS = 0.95

#: maximum checkpoints kept per stratum's half-width convergence history
HISTORY_POINTS = 32

#: Jeffreys prior — matches ErrorPosterior.sdc_beta_posterior's default
PRIOR_A = 0.5
PRIOR_B = 0.5


@dataclass(frozen=True)
class StoppingTarget:
    """An advisory convergence target: CI half-width at a credible mass.

    A stratum "meets the target" once the central credible interval
    containing ``mass`` probability has half-width ≤ ``halfwidth``.
    """

    halfwidth: float
    mass: float = DEFAULT_MASS

    def __post_init__(self) -> None:
        if not 0 < self.halfwidth < 0.5:
            raise ValueError(f"target halfwidth must be in (0, 0.5), got {self.halfwidth}")
        if not 0 < self.mass < 1:
            raise ValueError(f"target mass must be in (0, 1), got {self.mass}")

    def to_dict(self) -> dict:
        return {"halfwidth": self.halfwidth, "mass": self.mass}


# ---------------------------------------------------------------------- #
# outcome events
# ---------------------------------------------------------------------- #


def _layer_label(target) -> str:
    """Stratum label for a :class:`~repro.faults.targets.TargetSpec`."""
    include = getattr(target, "include_layers", None) if target is not None else None
    if not include:
        return "all"
    return ",".join(include)


def _bitfield_label(spec) -> str:
    """Stratum label for a campaign spec's fault-model lane restriction."""
    model = getattr(spec, "fault_model", None) if spec is not None else None
    bits = getattr(model, "bits", None) if model is not None else None
    if bits is None:
        return "all"
    from repro.bits.fields import bit_field

    fields = sorted({bit_field(int(b)) for b in np.asarray(bits).reshape(-1)})
    return "+".join(fields)


def outcome_payload(index: int, outcome, spec=None, target=None) -> dict:
    """The ``estimate`` event payload for one completed campaign task.

    ``outcome`` is a :class:`~repro.core.campaign.CampaignResult` (or a
    tempered ``(result, weighted)`` pair — unwrapped). The payload holds
    everything the tracker needs and nothing more: the task index, the
    stratum labels, the trial count, and the indices of trials whose
    error exceeded the golden error — trial-level resolution so the
    convergence history is meaningful even when a stratum receives a
    single task.
    """
    if isinstance(outcome, tuple) and outcome:
        outcome = outcome[0]
    posterior = outcome.posterior
    samples = posterior.samples
    degraded = np.flatnonzero(samples > posterior.golden_error)
    return {
        "task": int(index),
        "layer": _layer_label(target),
        "bitfield": _bitfield_label(spec),
        "p": float(outcome.flip_probability),
        "trials": int(samples.size),
        "degraded_trials": [int(i) for i in degraded],
    }


def publish_outcome(index: int, outcome, spec=None, target=None) -> None:
    """Publish one task outcome as an ``estimate`` event (free when unobserved).

    Payload construction costs a threshold scan over the error samples,
    so the event is only built when a sink would actually see it
    (:func:`repro.obs.listening`).
    """
    import repro.obs as obs

    if not obs.listening():
        return
    obs.publish(EVENT_KIND, **outcome_payload(index, outcome, spec=spec, target=target))


# ---------------------------------------------------------------------- #
# the tracker
# ---------------------------------------------------------------------- #


def _history_checkpoints(n: int, limit: int = HISTORY_POINTS) -> np.ndarray:
    """≤ ``limit`` trial counts at which to sample the half-width history."""
    if n <= limit:
        return np.arange(1, n + 1)
    return np.unique(np.linspace(1, n, limit).round().astype(np.int64))


def _halfwidths(k: np.ndarray, n: np.ndarray, mass: float) -> np.ndarray:
    """Vectorised posterior CI half-widths for cumulative (k, n) counts."""
    from repro.bayes.intervals import beta_central_interval

    lo, hi = beta_central_interval(PRIOR_A + k, PRIOR_B + (n - k), mass)
    return (np.atleast_1d(hi) - np.atleast_1d(lo)) / 2.0


class EstimatorTracker(ProgressSink):
    """Fold ``estimate`` events into streaming per-stratum Beta posteriors.

    The sink side is an O(1) idempotent insert keyed by task index
    (duplicate deliveries and journal replays collapse naturally); the
    query side (:meth:`estimates`) replays contributions in task-index
    order, so the document is independent of delivery order — the
    property the resume/pool bit-identity tests pin down.
    """

    def __init__(self, target: StoppingTarget | None = None) -> None:
        self.target = target
        self._lock = threading.Lock()
        self._contributions: dict[int, dict] = {}
        #: bumped whenever ``emit`` inserts a new task; keys the document cache
        self._generation = 0
        self._cached: tuple[int, dict] | None = None

    # -- sink side ----------------------------------------------------- #

    def emit(self, event: ProgressEvent) -> None:
        if event.kind != EVENT_KIND:
            return
        payload = event.payload
        task = payload.get("task")
        trials = payload.get("trials")
        if task is None or trials is None or int(trials) <= 0:
            return
        contribution = {
            "task": int(task),
            "layer": str(payload.get("layer", "all")),
            "bitfield": str(payload.get("bitfield", "all")),
            "p": float(payload.get("p", 0.0)),
            "trials": int(trials),
            "degraded_trials": [int(i) for i in payload.get("degraded_trials") or ()],
        }
        with self._lock:
            # first delivery wins: replays and duplicates are no-ops
            if contribution["task"] not in self._contributions:
                self._contributions[contribution["task"]] = contribution
                self._generation += 1

    @property
    def contributions(self) -> int:
        """Number of distinct task outcomes folded so far."""
        with self._lock:
            return len(self._contributions)

    # -- query side ---------------------------------------------------- #

    def estimates(self) -> dict:
        """The current ``/estimates`` document (JSON-safe, deterministic).

        A pure function of the folded outcome set: no wall times, no
        delivery-order dependence — an interrupted-and-resumed campaign
        reproduces the uninterrupted document bit for bit. The document is
        built once per fold generation; each call returns a private copy,
        so no caller can alter what the next one reads.
        """
        return copy.deepcopy(self._document())

    def _document(self) -> dict:
        """The cached document of the current fold generation (do not mutate)."""
        with self._lock:
            if self._cached is not None and self._cached[0] == self._generation:
                return self._cached[1]
            generation = self._generation
            ordered = [self._contributions[task] for task in sorted(self._contributions)]
        document = self._build(ordered)
        with self._lock:
            self._cached = (generation, document)
        return document

    def _build(self, ordered: list[dict]) -> dict:
        mass = self.target.mass if self.target is not None else DEFAULT_MASS
        strata: dict[tuple[str, str, float], list[dict]] = {}
        for contribution in ordered:
            key = (contribution["layer"], contribution["bitfield"], contribution["p"])
            strata.setdefault(key, []).append(contribution)

        stratum_docs = []
        for key in sorted(strata):
            stratum_docs.append(self._stratum_doc(key, strata[key], mass))

        total_trials = sum(doc["trials"] for doc in stratum_docs)
        total_degraded = sum(doc["degraded"] for doc in stratum_docs)
        overall = self._summary(total_degraded, total_trials, mass)
        converged = None
        if self.target is not None and stratum_docs:
            crossed = [doc for doc in stratum_docs if doc["crossed_at"] is not None]
            converged = {
                "converged": len(crossed),
                "total": len(stratum_docs),
                "fraction": len(crossed) / len(stratum_docs),
            }
            overall["crossed_at"] = (
                max(doc["crossed_at"] for doc in crossed)
                if len(crossed) == len(stratum_docs)
                else None
            )
        return {
            "target": self.target.to_dict() if self.target is not None else None,
            "mass": mass,
            "tasks": len(ordered),
            "trials": total_trials,
            "degraded": total_degraded,
            "overall": overall,
            "strata": stratum_docs,
            "converged": converged,
        }

    def _summary(self, k: int, n: int, mass: float) -> dict:
        """Posterior point/interval summary for ``k`` degraded of ``n``."""
        posterior = Beta(PRIOR_A + k, PRIOR_B + (n - k))
        lo, hi = posterior.interval(mass)
        return {
            "trials": n,
            "degraded": k,
            "mean": posterior.mean,
            "interval": [lo, hi],
            "halfwidth": (hi - lo) / 2.0,
            "variance": posterior.variance,
        }

    def _stratum_doc(self, key: tuple[str, str, float], contributions: list[dict], mass: float) -> dict:
        layer, bitfield, p = key
        # trial-level cumulative counts: concatenate tasks in index order
        total = sum(c["trials"] for c in contributions)
        indicator = np.zeros(total, dtype=np.float64)
        offset = 0
        for contribution in contributions:
            for trial in contribution["degraded_trials"]:
                if 0 <= trial < contribution["trials"]:
                    indicator[offset + trial] = 1.0
            offset += contribution["trials"]
        cum_k = np.cumsum(indicator)
        k_total = int(cum_k[-1]) if total else 0

        doc = self._summary(k_total, total, mass)
        doc.update({"layer": layer, "bitfield": bitfield, "p": p, "tasks": len(contributions)})

        # convergence history at ≤ HISTORY_POINTS trial counts
        checkpoints = _history_checkpoints(total)
        widths = _halfwidths(cum_k[checkpoints - 1], checkpoints.astype(np.float64), mass)
        doc["history"] = [
            {"n": int(n_at), "halfwidth": float(w)} for n_at, w in zip(checkpoints, widths)
        ]

        # first task index whose cumulative posterior met the target
        doc["crossed_at"] = None
        doc["converged"] = None
        if self.target is not None:
            boundaries = np.cumsum([c["trials"] for c in contributions])
            k_at = cum_k[boundaries - 1] if total else np.zeros(len(contributions))
            widths_at = _halfwidths(k_at, boundaries.astype(np.float64), mass)
            met = np.flatnonzero(widths_at <= self.target.halfwidth)
            if met.size:
                doc["crossed_at"] = int(contributions[int(met[0])]["task"])
            doc["converged"] = doc["halfwidth"] <= self.target.halfwidth
        return doc

    # -- exposition ---------------------------------------------------- #

    def report_lines(self) -> list[str]:
        """The advisory stopping monitor's report (one line per stratum).

        Observational only — it names the first task index at which each
        stratum crossed the :class:`StoppingTarget`, but never interrupts
        the campaign.
        """
        if self.target is None:
            raise ValueError("the stopping report needs a tracker with a StoppingTarget")
        document = self._document()
        lines = [
            f"stopping monitor: target halfwidth {self.target.halfwidth:g} "
            f"at {self.target.mass:.0%} credible mass"
        ]
        for doc in document["strata"]:
            where = (
                f"crossed at task {doc['crossed_at']}"
                if doc["crossed_at"] is not None
                else "not yet converged"
            )
            lines.append(
                f"  layer={doc['layer']} bitfield={doc['bitfield']} "
                f"p={doc['p']:.6g}: halfwidth {doc['halfwidth']:.4g} ({where})"
            )
        converged, crossed = document["converged"], document["overall"].get("crossed_at")
        if converged is not None:
            lines.append(
                f"  {converged['converged']}/{converged['total']} strata at target"
                + (f"; campaign crossed at task {crossed}" if crossed is not None else "")
            )
        return lines

    def metric_families(self) -> list[dict]:
        """OpenMetrics families for the ``/metrics`` endpoint.

        Per-stratum gauges labelled ``layer``/``bitfield``/``p``, the
        campaign-level ``repro_ci_halfwidth`` gauge, and — when a
        stopping target is armed — the ``repro_strata_converged_total``
        counter ("k of S strata meet the target half-width").
        """
        document = self._document()
        if not document["tasks"]:
            return []
        stratum_mean = []
        stratum_halfwidth = []
        stratum_trials = []
        for doc in document["strata"]:
            labels = {
                "layer": doc["layer"],
                "bitfield": doc["bitfield"],
                "p": f"{doc['p']:.6g}",
            }
            stratum_mean.append((labels, doc["mean"]))
            stratum_halfwidth.append((labels, doc["halfwidth"]))
            stratum_trials.append((labels, doc["trials"]))
        families = [
            {"name": "stratum_mean", "type": "gauge", "samples": stratum_mean},
            {"name": "stratum_ci_halfwidth", "type": "gauge", "samples": stratum_halfwidth},
            {"name": "stratum_trials", "type": "counter", "samples": stratum_trials},
            {
                "name": "ci_halfwidth",
                "type": "gauge",
                "samples": [({}, document["overall"]["halfwidth"])],
            },
        ]
        if document["converged"] is not None:
            families.append(
                {
                    "name": "strata_converged",
                    "type": "counter",
                    "samples": [({}, document["converged"]["converged"])],
                }
            )
        return families
