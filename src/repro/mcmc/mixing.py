"""Campaign completeness from MCMC mixing.

Implements the paper's advantage #1: "the ability to quantify
'completeness' of an injection campaign (i.e., when further injections do
not change measured hypothesis) using MCMC-mixing."

A campaign is declared complete when, over its parallel chains,

1. split-R̂ is below a threshold (chains agree with each other),
2. the effective sample size exceeds a floor (enough independent
   information), and
3. the Monte-Carlo standard error of the estimate is below a tolerance
   (further injections cannot move the measured hypothesis by more than
   the tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mcmc.chain import ChainSet
from repro.mcmc.diagnostics import effective_sample_size, monte_carlo_standard_error, split_r_hat

__all__ = ["CompletenessCriterion", "CompletenessReport"]


@dataclass(frozen=True)
class CompletenessReport:
    """Outcome of a completeness assessment."""

    complete: bool
    r_hat: float
    ess: float
    mcse: float
    estimate: float
    steps: int

    def __str__(self) -> str:
        status = "COMPLETE" if self.complete else "incomplete"
        return (
            f"[{status}] estimate={self.estimate:.4f} ± {self.mcse:.4f} "
            f"(R-hat={self.r_hat:.3f}, ESS={self.ess:.0f}, steps={self.steps})"
        )

    def to_dict(self) -> dict:
        """JSON-ready record (the shape persisted by ``CampaignResult``)."""
        return {
            "complete": self.complete,
            "r_hat": self.r_hat,
            "ess": self.ess,
            "mcse": self.mcse,
            "estimate": self.estimate,
            "steps": self.steps,
        }


class CompletenessCriterion:
    """Thresholds converting diagnostics into a stop decision.

    Defaults follow common practice: R̂ < 1.05, ESS ≥ 100, and a
    user-chosen absolute tolerance on the error estimate (default 1 %,
    i.e. further injection cannot move the reported classification error
    by more than one percentage point).
    """

    def __init__(
        self,
        r_hat_threshold: float = 1.05,
        min_ess: float = 100.0,
        stderr_tolerance: float = 0.01,
        discard_fraction: float = 0.25,
    ) -> None:
        if r_hat_threshold <= 1.0:
            raise ValueError(f"r_hat_threshold must exceed 1, got {r_hat_threshold}")
        if min_ess <= 0:
            raise ValueError(f"min_ess must be positive, got {min_ess}")
        if stderr_tolerance <= 0:
            raise ValueError(f"stderr_tolerance must be positive, got {stderr_tolerance}")
        if not 0.0 <= discard_fraction < 1.0:
            raise ValueError(f"discard_fraction must be in [0, 1), got {discard_fraction}")
        self.r_hat_threshold = r_hat_threshold
        self.min_ess = min_ess
        self.stderr_tolerance = stderr_tolerance
        self.discard_fraction = discard_fraction

    def assess(self, chains: ChainSet) -> CompletenessReport:
        """Evaluate the three-part completeness condition on a chain set."""
        matrix = chains.matrix(self.discard_fraction)
        m, n = matrix.shape
        if m >= 2 or n >= 4:
            r_hat = split_r_hat(matrix) if m >= 1 and n >= 4 else float("inf")
        else:
            r_hat = float("inf")
        ess = effective_sample_size(matrix) if n >= 4 else 0.0
        mcse = monte_carlo_standard_error(matrix) if n >= 4 else float("inf")
        estimate = float(matrix.mean())
        complete = (
            bool(r_hat < self.r_hat_threshold)
            and bool(ess >= self.min_ess)
            and bool(mcse <= self.stderr_tolerance)
        )
        return CompletenessReport(
            complete=complete, r_hat=float(r_hat), ess=float(ess), mcse=float(mcse),
            estimate=estimate, steps=chains.steps,
        )

    def assess_window(self, chains: ChainSet, window: int) -> CompletenessReport:
        """Diagnostics over the trailing ``window`` steps of each chain.

        The *live* view behind progress streams: where :meth:`assess`
        judges the whole (post-burn-in) history, this judges only the
        most recent window, so a campaign that mixed early but drifted
        late is visible while it happens. The thresholds are the same;
        ``steps`` reports the window actually used.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        matrix = chains.recent_matrix(window)
        m, n = matrix.shape
        r_hat = split_r_hat(matrix) if n >= 4 else float("inf")
        ess = effective_sample_size(matrix) if n >= 4 else 0.0
        mcse = monte_carlo_standard_error(matrix) if n >= 4 else float("inf")
        estimate = float(matrix.mean())
        complete = (
            bool(r_hat < self.r_hat_threshold)
            and bool(ess >= self.min_ess)
            and bool(mcse <= self.stderr_tolerance)
        )
        return CompletenessReport(
            complete=complete, r_hat=float(r_hat), ess=float(ess), mcse=float(mcse),
            estimate=estimate, steps=n,
        )

    def steps_to_complete(self, chains: ChainSet, check_every: int = 25) -> int | None:
        """Smallest step count at which the (prefix of the) campaign was complete.

        Replays the chain prefixes; returns ``None`` if the full campaign
        never satisfied the criterion. Used by experiment E5 to compare
        adaptive stopping against fixed-N campaigns.
        """
        if check_every <= 0:
            raise ValueError(f"check_every must be positive, got {check_every}")
        full = chains.matrix(0.0)
        _, n = full.shape
        for steps in range(check_every, n + 1, check_every):
            prefix = full[:, :steps]
            discard = int(steps * self.discard_fraction)
            window = prefix[:, discard:]
            if window.shape[1] < 4:
                continue
            r_hat = split_r_hat(window)
            ess = effective_sample_size(window)
            mcse = monte_carlo_standard_error(window)
            if r_hat < self.r_hat_threshold and ess >= self.min_ess and mcse <= self.stderr_tolerance:
                return steps
        return None
