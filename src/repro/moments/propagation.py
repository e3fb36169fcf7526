"""Assumed-density propagation of fault moments through ReLU networks.

State: per-unit (mean, variance) with a cross-unit independence
assumption — the classic ADF factorisation. Supported layers:

* :class:`~repro.nn.layers.Dense` with uncertain weights/biases — exact
  first two moments of ``y = x·W' + b'`` when ``x``, ``ΔW`` and ``Δb`` are
  independent:
  ``E[y] = E[x]·(W̄ + m_W) + b̄ + m_b`` and
  ``Var[y] = Var[x]·(W̄+m_W)² + (E[x]² + Var[x])·v_W + v_b``
  (elementwise squares, matrix products over the input axis);
* :class:`~repro.nn.conv.Conv2d` — the same uncertain-linear algebra with
  convolutions in place of matrix products;
* :class:`~repro.nn.norm.BatchNorm2d` in eval mode — an affine transform
  with uncertain scale/shift over frozen running statistics;
* :class:`~repro.nn.activations.ReLU` — Gaussian moment matching with the
  closed-form rectified-Gaussian moments;
* :class:`~repro.nn.pooling.AvgPool2d` / ``GlobalAvgPool2d`` — linear, so
  exact (``Var(mean of k² independents) = mean(var)/k²``);
* :class:`~repro.nn.layers.Flatten` / :class:`~repro.nn.layers.Identity`.

Supported compositions: :class:`MLP`, average-pool :class:`LeNet`
(``LeNet(pool="avg")``), and arbitrary (nested) ``Sequential`` stacks of
the above. Max pooling and residual adds are not covered — use the
sampling campaigns for those architectures.

The output converts logit moments to misclassification probability with
the pairwise-Gaussian product approximation
``P(correct) ≈ Π_{j≠l} Φ((μ_l − μ_j)/√(σ_l² + σ_j²))``.

Severe flips (non-finite or far beyond the weight scale) are outside any
Gaussian's reach; they are split off exactly via their Bernoulli
probability and bounded between fully-masked and worst-case outcomes —
see :class:`MomentPrediction`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.moments.perturbation import weight_perturbation_moments
from repro.nn.activations import ReLU
from repro.nn.containers import Sequential
from repro.nn.conv import Conv2d
from repro.nn.layers import Dense, Flatten, Identity
from repro.nn.models.lenet import LeNet
from repro.nn.models.mlp import MLP
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d

__all__ = ["MomentPrediction", "MomentPropagator"]


@dataclass(frozen=True)
class MomentPrediction:
    """Analytic error prediction at one flip probability.

    A severe flip's effect is bimodal — it either saturates a unit and
    drives the output to a near-constant prediction, or (negative
    pre-activation into a ReLU) is masked entirely — so the analysis
    reports *bounds* around the severe mass plus a point estimate:

    * ``error_lower``  — every severe flip masked;
    * ``error_upper``  — every severe flip worst-case (random guessing);
    * ``combined_error`` — severe flips split evenly between the two,
      the maximum-entropy point choice.
    """

    p: float
    #: predicted error conditioned on no severe flip
    gaussian_error: float
    #: exact probability of at least one severe flip
    severe_probability: float
    #: error assigned to a worst-case severe outcome
    severe_error: float
    golden_error: float

    @property
    def error_lower(self) -> float:
        return (1.0 - self.severe_probability) * self.gaussian_error

    @property
    def error_upper(self) -> float:
        ps = self.severe_probability
        return (1.0 - ps) * self.gaussian_error + ps * self.severe_error

    @property
    def combined_error(self) -> float:
        """Point prediction: severe outcomes half masked, half worst-case."""
        ps = self.severe_probability
        return (1.0 - ps) * self.gaussian_error + 0.5 * ps * self.severe_error

    def brackets(self, measured: float) -> bool:
        """Whether a measured error falls inside [lower, upper] (validation)."""
        return self.error_lower - 1e-9 <= measured <= self.error_upper + 1e-9


def _relu_moments(mean: np.ndarray, variance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rectified-Gaussian first two moments, elementwise."""
    from scipy import stats as sps

    sigma = np.sqrt(np.maximum(variance, 0.0))
    out_mean = np.maximum(mean, 0.0)
    out_var = np.zeros_like(variance)
    positive = sigma > 1e-12
    if np.any(positive):
        mu = mean[positive]
        sd = sigma[positive]
        alpha = mu / sd
        cdf = sps.norm.cdf(alpha)
        pdf = sps.norm.pdf(alpha)
        first = mu * cdf + sd * pdf
        second = (mu**2 + sd**2) * cdf + mu * sd * pdf
        out_mean[positive] = first
        out_var[positive] = np.maximum(second - first**2, 0.0)
    return out_mean, out_var


class MomentPropagator:
    """Analytic fault-error predictor for Dense/ReLU networks.

    Parameters
    ----------
    model:
        An :class:`~repro.nn.models.MLP`, an average-pool
        :class:`~repro.nn.models.LeNet`, or a (nested) :class:`Sequential`
        of Dense / Conv2d / BatchNorm2d / ReLU / AvgPool / Flatten layers.
    p:
        Bit-flip probability (the paper's AVF parameter).
    bits:
        Optional vulnerable-lane restriction, as in
        :class:`repro.faults.BernoulliBitFlipModel`.
    include_biases:
        Whether bias storage is part of the fault surface.
    severe_error:
        Worst-case error assigned to severe-flip draws; defaults to random
        guessing, ``1 − 1/num_classes``.
    severe_threshold:
        |Δ| bound separating Gaussian-describable lanes from severe ones;
        defaults per tensor to 100× its RMS (see
        :func:`repro.moments.perturbation.default_severe_threshold`).
    """

    def __init__(
        self,
        model: Module,
        p: float,
        bits: tuple[int, ...] | None = None,
        include_biases: bool = True,
        severe_error: float | None = None,
        severe_threshold: float | None = None,
    ) -> None:
        self.sequence = self._flatten_model(model)
        self.p = float(p)
        self.bits = bits
        self.include_biases = include_biases
        self._layer_moments: dict[int, dict[str, object]] = {}
        severe_sites = 0
        for index, layer in enumerate(self.sequence):
            if isinstance(layer, (Dense, Conv2d, BatchNorm2d)):
                weight_moments = weight_perturbation_moments(
                    layer.weight.data, p, bits=bits, severe_threshold=severe_threshold
                )
                entry: dict[str, object] = {"weight": weight_moments}
                severe_sites += weight_moments.total_severe_sites
                if include_biases and layer.bias is not None:
                    bias_moments = weight_perturbation_moments(
                        layer.bias.data, p, bits=bits, severe_threshold=severe_threshold
                    )
                    entry["bias"] = bias_moments
                    severe_sites += bias_moments.total_severe_sites
                self._layer_moments[index] = entry
        if not self._layer_moments:
            raise ValueError("model contains no parameterised layers to analyse")
        #: exact P(at least one severe flip across the whole fault surface)
        self.severe_probability = float(1.0 - (1.0 - p) ** severe_sites)
        self.total_severe_sites = severe_sites
        self._severe_error = severe_error

    _SUPPORTED_LEAVES = (Dense, Conv2d, BatchNorm2d, ReLU, Flatten, Identity, AvgPool2d, GlobalAvgPool2d)

    @classmethod
    def _flatten_model(cls, model: Module) -> list[Module]:
        """Expand known sequential compositions into a flat layer list."""
        if isinstance(model, MLP):
            model = model.layers
        if isinstance(model, LeNet):
            layers: list[Module] = [*cls._flatten_model(model.features), *cls._flatten_model(model.classifier)]
        elif isinstance(model, Sequential):
            layers = []
            for child in model:
                if isinstance(child, Sequential):
                    layers.extend(cls._flatten_model(child))
                else:
                    layers.append(child)
        elif isinstance(model, cls._SUPPORTED_LEAVES):
            layers = [model]
        else:
            raise TypeError(
                f"MomentPropagator supports MLP/LeNet/Sequential compositions, got {type(model).__name__}"
            )
        for layer in layers:
            if not isinstance(layer, cls._SUPPORTED_LEAVES):
                raise TypeError(
                    f"unsupported layer {type(layer).__name__}; analytic propagation covers "
                    "Dense/Conv2d/BatchNorm2d(eval)/ReLU/AvgPool/GlobalAvgPool/Flatten/Identity"
                )
        return layers

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #

    def propagate(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Push (mean, variance) of the logits for a clean input batch."""
        mean = np.asarray(inputs, dtype=np.float64)
        needs_flat = not any(isinstance(layer, (Conv2d, BatchNorm2d)) for layer in self.sequence)
        if needs_flat and mean.ndim > 2:
            mean = mean.reshape(mean.shape[0], -1)
        variance = np.zeros_like(mean)
        for index, layer in enumerate(self.sequence):
            if isinstance(layer, Dense):
                if mean.ndim > 2:
                    mean = mean.reshape(mean.shape[0], -1)
                    variance = variance.reshape(variance.shape[0], -1)
                mean, variance = self._dense_moments(layer, index, mean, variance)
            elif isinstance(layer, Conv2d):
                mean, variance = self._conv_moments(layer, index, mean, variance)
            elif isinstance(layer, BatchNorm2d):
                mean, variance = self._batchnorm_moments(layer, index, mean, variance)
            elif isinstance(layer, AvgPool2d):
                mean, variance = self._avgpool_moments(layer, mean, variance)
            elif isinstance(layer, GlobalAvgPool2d):
                spatial = mean.shape[2] * mean.shape[3]
                mean = mean.mean(axis=(2, 3))
                variance = variance.sum(axis=(2, 3)) / spatial**2
            elif isinstance(layer, ReLU):
                mean, variance = _relu_moments(mean, variance)
            elif isinstance(layer, Flatten):
                mean = mean.reshape(mean.shape[0], -1)
                variance = variance.reshape(variance.shape[0], -1)
            # Identity: nothing
        return mean, variance

    @staticmethod
    def _conv_apply(kernel: np.ndarray, values: np.ndarray, stride: int, padding: int) -> np.ndarray:
        """Plain conv2d of float64 values with a float64 kernel (no grad)."""
        from repro.tensor import conv2d as conv2d_fn
        from repro.tensor.tensor import Tensor, no_grad

        with no_grad():
            out = conv2d_fn(
                Tensor(values.astype(np.float32)),
                Tensor(kernel.astype(np.float32)),
                None,
                stride=stride,
                padding=padding,
            )
        return out.data.astype(np.float64)

    def _conv_moments(self, layer: Conv2d, index: int, x_mean, x_var):
        entry = self._layer_moments[index]
        weight_moments = entry["weight"]
        kernel_eff = layer.weight.data.astype(np.float64) + weight_moments.mean
        kernel_var = weight_moments.variance
        y_mean = self._conv_apply(kernel_eff, x_mean, layer.stride, layer.padding)
        y_var = self._conv_apply(kernel_eff**2, x_var, layer.stride, layer.padding)
        y_var = y_var + self._conv_apply(kernel_var, x_mean**2 + x_var, layer.stride, layer.padding)
        if layer.bias is not None:
            bias = layer.bias.data.astype(np.float64).reshape(1, -1, 1, 1)
            if "bias" in entry:
                bias_moments = entry["bias"]
                y_mean = y_mean + bias + bias_moments.mean.reshape(1, -1, 1, 1)
                y_var = y_var + bias_moments.variance.reshape(1, -1, 1, 1)
            else:
                y_mean = y_mean + bias
        return y_mean, np.maximum(y_var, 0.0)

    def _batchnorm_moments(self, layer: BatchNorm2d, index: int, x_mean, x_var):
        """Eval-mode affine transform with uncertain gamma/beta.

        y = a·(x − μ_r) + β' with a = γ'/σ_r; the running statistics are
        frozen constants in eval mode.
        """
        entry = self._layer_moments[index]
        gamma_moments = entry["weight"]
        sigma = np.sqrt(layer.running_var.astype(np.float64) + layer.eps)
        a_mean = (layer.weight.data.astype(np.float64) + gamma_moments.mean) / sigma
        a_var = gamma_moments.variance / sigma**2
        shape = (1, -1, 1, 1)
        centered_mean = x_mean - layer.running_mean.astype(np.float64).reshape(shape)
        y_mean = a_mean.reshape(shape) * centered_mean
        y_var = (
            a_mean.reshape(shape) ** 2 * x_var
            + a_var.reshape(shape) * (centered_mean**2 + x_var)
        )
        beta = layer.bias.data.astype(np.float64).reshape(shape)
        if "bias" in entry:
            beta_moments = entry["bias"]
            y_mean = y_mean + beta + beta_moments.mean.reshape(shape)
            y_var = y_var + beta_moments.variance.reshape(shape)
        else:
            y_mean = y_mean + beta
        return y_mean, np.maximum(y_var, 0.0)

    @staticmethod
    def _avgpool_moments(layer: AvgPool2d, x_mean, x_var):
        from repro.tensor import avg_pool2d
        from repro.tensor.tensor import Tensor, no_grad

        window = layer.kernel_size * layer.kernel_size
        with no_grad():
            mean_out = avg_pool2d(Tensor(x_mean.astype(np.float32)), layer.kernel_size, layer.stride).data
            var_out = avg_pool2d(Tensor(x_var.astype(np.float32)), layer.kernel_size, layer.stride).data
        # Var(mean of k² independents) = mean(var)/k².
        return mean_out.astype(np.float64), var_out.astype(np.float64) / window

    def _dense_moments(self, layer: Dense, index: int, x_mean, x_var):
        entry = self._layer_moments[index]
        weight_moments = entry["weight"]
        w_eff = layer.weight.data.astype(np.float64) + weight_moments.mean
        w_var = weight_moments.variance
        y_mean = x_mean @ w_eff
        y_var = x_var @ (w_eff**2) + (x_mean**2 + x_var) @ w_var
        if layer.bias is not None:
            bias = layer.bias.data.astype(np.float64)
            if "bias" in entry:
                bias_moments = entry["bias"]
                y_mean = y_mean + bias + bias_moments.mean
                y_var = y_var + bias_moments.variance
            else:
                y_mean = y_mean + bias
        return y_mean, y_var

    # ------------------------------------------------------------------ #
    # error prediction
    # ------------------------------------------------------------------ #

    @staticmethod
    def misclassification_probability(
        logit_mean: np.ndarray, logit_variance: np.ndarray, labels: np.ndarray
    ) -> float:
        """Mean P(argmax ≠ label) under the independent-Gaussian logit model."""
        from scipy import stats as sps

        labels = np.asarray(labels, dtype=np.int64)
        n, k = logit_mean.shape
        if labels.shape != (n,):
            raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
        correct = np.ones(n)
        label_mean = logit_mean[np.arange(n), labels]
        label_var = logit_variance[np.arange(n), labels]
        for j in range(k):
            competitor = np.full(n, j) != labels
            if not competitor.any():
                continue
            gap = label_mean[competitor] - logit_mean[competitor, j]
            spread = np.sqrt(label_var[competitor] + logit_variance[competitor, j])
            prob = np.where(spread > 1e-12, sps.norm.cdf(gap / np.maximum(spread, 1e-12)), (gap > 0) + 0.5 * (gap == 0))
            correct[competitor] *= prob
        return float(1.0 - correct.mean())

    def _clean_logits(self, inputs: np.ndarray) -> np.ndarray:
        """Deterministic forward pass with the golden weights (no faults)."""
        from repro.tensor import avg_pool2d
        from repro.tensor.tensor import Tensor, no_grad

        x = np.asarray(inputs, dtype=np.float64)
        needs_flat = not any(isinstance(layer, (Conv2d, BatchNorm2d)) for layer in self.sequence)
        if needs_flat and x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        for layer in self.sequence:
            if isinstance(layer, Dense):
                if x.ndim > 2:
                    x = x.reshape(x.shape[0], -1)
                x = x @ layer.weight.data.astype(np.float64)
                if layer.bias is not None:
                    x = x + layer.bias.data.astype(np.float64)
            elif isinstance(layer, Conv2d):
                x = self._conv_apply(layer.weight.data.astype(np.float64), x, layer.stride, layer.padding)
                if layer.bias is not None:
                    x = x + layer.bias.data.astype(np.float64).reshape(1, -1, 1, 1)
            elif isinstance(layer, BatchNorm2d):
                sigma = np.sqrt(layer.running_var.astype(np.float64) + layer.eps)
                shape = (1, -1, 1, 1)
                x = (
                    layer.weight.data.astype(np.float64).reshape(shape)
                    * (x - layer.running_mean.astype(np.float64).reshape(shape))
                    / sigma.reshape(shape)
                    + layer.bias.data.astype(np.float64).reshape(shape)
                )
            elif isinstance(layer, AvgPool2d):
                with no_grad():
                    x = avg_pool2d(Tensor(x.astype(np.float32)), layer.kernel_size, layer.stride).data.astype(np.float64)
            elif isinstance(layer, GlobalAvgPool2d):
                x = x.mean(axis=(2, 3))
            elif isinstance(layer, ReLU):
                x = np.maximum(x, 0.0)
            elif isinstance(layer, Flatten):
                x = x.reshape(x.shape[0], -1)
        return x

    def predict_error(self, inputs: np.ndarray, labels: np.ndarray) -> MomentPrediction:
        """Analytic total-error prediction for an evaluation batch."""
        labels = np.asarray(labels, dtype=np.int64)
        mean, variance = self.propagate(inputs)
        gaussian_error = self.misclassification_probability(mean, variance, labels)
        clean = self._clean_logits(inputs)
        golden = self.misclassification_probability(clean, np.zeros_like(clean), labels)
        num_classes = mean.shape[1]
        severe_error = (
            self._severe_error if self._severe_error is not None else 1.0 - 1.0 / num_classes
        )
        return MomentPrediction(
            p=self.p,
            gaussian_error=gaussian_error,
            severe_probability=self.severe_probability,
            severe_error=float(severe_error),
            golden_error=golden,
        )
