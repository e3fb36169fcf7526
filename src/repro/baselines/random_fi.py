"""Traditional random fault injection (Li et al. SC'17 / TensorFI style).

Methodology: repeat N times — pick one storage location uniformly at
random, flip one uniformly chosen bit, run one inference, classify the
outcome against the golden run:

* **masked** — every prediction on the evaluation batch unchanged;
* **SDC** (silent data corruption) — at least one prediction changed,
  outputs finite;
* **DUE** (detectable uncorrectable error) — non-finite values reached the
  output (a real system would trap or could detect these).

This is exactly the estimator whose "incomplete traversal of the entire
injection space" the paper blames for the depth-sensitivity artifact of
prior work, so the baseline supports per-layer campaigns for the Fig. 3
comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.compare import wilson_interval
from repro.faults.configuration import FaultConfiguration
from repro.faults.injection import apply_configuration
from repro.faults.targets import TargetSpec, resolve_parameter_targets
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import RngFactory

__all__ = ["InjectionOutcome", "InjectionRecord", "RandomFaultInjector", "RandomFICampaign"]


class InjectionOutcome(enum.Enum):
    MASKED = "masked"
    SDC = "sdc"
    DUE = "due"


@dataclass(frozen=True)
class InjectionRecord:
    """One injection run's result."""

    target: str
    bit: int
    element_index: int
    outcome: InjectionOutcome
    #: fraction of evaluation samples whose prediction changed
    mismatch_fraction: float


@dataclass
class RandomFICampaign:
    """Aggregate of a random-FI campaign."""

    records: list[InjectionRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def _rate(self, outcome: InjectionOutcome) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.outcome is outcome for r in self.records]))

    @property
    def sdc_rate(self) -> float:
        return self._rate(InjectionOutcome.SDC)

    @property
    def due_rate(self) -> float:
        return self._rate(InjectionOutcome.DUE)

    @property
    def masked_rate(self) -> float:
        return self._rate(InjectionOutcome.MASKED)

    @property
    def mean_mismatch(self) -> float:
        """Mean fraction of predictions corrupted per injection.

        Comparable to BDLFI's excess classification error under a matched
        single-flip fault model.
        """
        if not self.records:
            return float("nan")
        return float(np.mean([r.mismatch_fraction for r in self.records]))

    def sdc_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Wilson score interval on the SDC rate."""
        hits = sum(r.outcome is InjectionOutcome.SDC for r in self.records)
        return wilson_interval(hits, len(self.records), confidence)

    def by_bit_field(self) -> dict[str, float]:
        """SDC rate split by IEEE-754 field of the flipped bit."""
        from repro.bits.fields import bit_field

        rates: dict[str, float] = {}
        for name in ("sign", "exponent", "mantissa"):
            group = [r for r in self.records if bit_field(r.bit) == name]
            rates[name] = (
                float(np.mean([r.outcome is InjectionOutcome.SDC for r in group]))
                if group
                else float("nan")
            )
        return rates

    def summary(self) -> dict[str, float]:
        lo, hi = self.sdc_interval()
        return {
            "injections": float(len(self.records)),
            "sdc_rate": self.sdc_rate,
            "sdc_ci_lo": lo,
            "sdc_ci_hi": hi,
            "due_rate": self.due_rate,
            "masked_rate": self.masked_rate,
            "mean_mismatch": self.mean_mismatch,
        }


class RandomFaultInjector:
    """Single-bit-flip random injector over a golden model.

    Parameters
    ----------
    model / inputs / labels:
        Golden network and evaluation batch (labels only used for error
        reporting parity with BDLFI; outcome classification is vs golden
        predictions, as in the SC'17 methodology).
    spec:
        Layer/surface filter; defaults to all weights.
    """

    def __init__(
        self,
        model: Module,
        inputs: np.ndarray,
        labels: np.ndarray,
        spec: TargetSpec | None = None,
        seed: int = 0,
    ) -> None:
        self.model = model.eval()
        self.inputs = np.asarray(inputs, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.spec = spec or TargetSpec()
        self.targets = resolve_parameter_targets(model, self.spec)
        if not self.targets:
            raise ValueError("target spec selects no parameters")
        self.seed = seed
        self._rng_factory = RngFactory(seed)
        self._x = Tensor(self.inputs)
        self._golden_predictions = self._predict()
        # Element-weighted target selection: a uniformly random bit of the
        # whole space lands in a tensor proportionally to its size.
        sizes = np.asarray([param.size for _, param in self.targets], dtype=np.float64)
        self._target_weights = sizes / sizes.sum()

    def _predict(self) -> np.ndarray:
        with no_grad(), np.errstate(all="ignore"):
            logits = self.model(self._x)
        return logits.data.argmax(axis=1)

    def _logits_finite(self) -> tuple[np.ndarray, bool]:
        with no_grad(), np.errstate(all="ignore"):
            logits = self.model(self._x)
        return logits.data.argmax(axis=1), bool(np.isfinite(logits.data).all())

    def inject_once(self, rng: np.random.Generator) -> InjectionRecord:
        """One injection run: flip one random bit, classify the outcome."""
        target_index = int(rng.choice(len(self.targets), p=self._target_weights))
        name, param = self.targets[target_index]
        element = int(rng.integers(0, param.size))
        bit = int(rng.integers(0, 32))
        mask = np.zeros(param.size, dtype=np.uint32)
        mask[element] = np.uint32(1) << np.uint32(bit)
        configuration = FaultConfiguration({name: mask.reshape(param.shape)})
        with apply_configuration(self.model, configuration):
            predictions, finite = self._logits_finite()
        mismatch = float((predictions != self._golden_predictions).mean())
        if not finite:
            outcome = InjectionOutcome.DUE
        elif mismatch > 0:
            outcome = InjectionOutcome.SDC
        else:
            outcome = InjectionOutcome.MASKED
        return InjectionRecord(
            target=name, bit=bit, element_index=element, outcome=outcome, mismatch_fraction=mismatch
        )

    def run(self, injections: int, stream: str = "random-fi") -> RandomFICampaign:
        """A campaign of ``injections`` independent single-bit runs."""
        if injections <= 0:
            raise ValueError(f"injections must be positive, got {injections}")
        rng = self._rng_factory.stream(stream)
        campaign = RandomFICampaign()
        for _ in range(injections):
            campaign.records.append(self.inject_once(rng))
        return campaign

    def run_per_layer(self, injections_per_layer: int) -> dict[str, RandomFICampaign]:
        """Independent campaigns restricted to each layer (Fig. 3 baseline)."""
        campaigns: dict[str, RandomFICampaign] = {}
        layer_names = sorted({name.rsplit(".", 1)[0] for name, _ in self.targets})
        for layer in layer_names:
            sub = RandomFaultInjector(
                self.model,
                self.inputs,
                self.labels,
                spec=TargetSpec.single_layer(layer, surfaces=self.spec.surfaces),
                seed=self.seed,
            )
            campaigns[layer] = sub.run(injections_per_layer, stream=f"random-fi:{layer}")
        return campaigns
