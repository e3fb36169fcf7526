"""The segment engine: the one fast faulted-forward primitive.

A campaign's cost is #configurations × one faulted forward pass.
:class:`BatchedNetworkEvaluator` runs ``k`` fault configurations through
the model's verified forward chain (:func:`repro.core.prefix.forward_chain`:
MLP, Sequential, LeNet, ResNet) in one sweep. The chain runs *shared* up to
the first faulted segment; from there on the activations carry a leading
configurations axis.

The rule that keeps the sweep bit-identical to ``apply_configuration`` +
``model(x)``, the standard path: every GEMM runs in the standard path's
call shape. A Conv2d hands :func:`~repro.tensor.functional.conv2d_forward`,
``conv2d``'s own kernel, the stack of row weights: it gathers a shared
input once for every row (a diverged one row by row) and runs one GEMM
per row, the call ``conv2d`` makes. A Dense broadcasts ``np.matmul``
over the configurations axis, which loops one ``(B, in) @ (in, out)``
GEMM per row. Only parameter-free leaves (ReLU, pooling, flatten), which
are elementwise or per-sample, run once over the ``k`` rows folded into
the batch axis.

Every fast path of :class:`~repro.core.injector.BayesianFaultInjector`
goes through :meth:`BatchedNetworkEvaluator.run_segments`:

* forward campaigns score each sampled block in chunks
  (:meth:`evaluate_logits`);
* the single-configuration statistic is a one-row sweep (``k = 1``);
* MCMC and tempered chains recompute from cached segment boundaries
  (:mod:`repro.core.delta`).

Every caller hands the engine a
:class:`~repro.faults.configuration.ConfigurationBlock` — a sampled
block's chunk, or ``ConfigurationBlock.of`` a list — so each parameter's
rows are faulted from one per-target fold.

One row class skips it:

* golden rows — a configuration that flips no bit is the golden forward,
  so :meth:`BatchedNetworkEvaluator.evaluate_logits` takes its row from
  the golden trace's verified logits and runs only the live rows. A layer
  of ``n`` parameters draws no flip with probability ``(1-p)^(32n)``, so
  at small ``p`` most single-layer samples of a small layer are golden.

Each of them is a *scorer*: the samplers run one loop and are handed
either the engine or the standard statistic (``apply_configuration`` +
``model(x)``) to score a block or round with. The contract is that both
score the same values bit for bit — enforced by the differential
fast-path tests, on eval batches of one, two and more images.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
import repro.obs.profile as obs_profile
from repro.faults.configuration import ConfigurationBlock
from repro.nn.containers import Sequential
from repro.nn.conv import Conv2d
from repro.nn.layers import Dense
from repro.nn.models.resnet import BasicBlock
from repro.nn.module import Module
from repro.nn.norm import _BatchNorm
from repro.tensor.functional import conv2d_forward
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["BatchedNetworkEvaluator"]

#: module types with an engine handler; any other module past the cut must
#: be a parameter-free leaf, the only kind that folds ``k`` into the batch
_HANDLED = (Dense, Conv2d, _BatchNorm, BasicBlock, Sequential)


class _State:
    """Activation flowing through the batched chain.

    ``diverged`` marks whether ``data`` carries a leading configurations
    axis: shared activations are ``(B, ...)`` (identical for every
    configuration, i.e. no faulted layer crossed yet), diverged ones are
    ``(k, B, ...)``.
    """

    __slots__ = ("data", "diverged")

    def __init__(self, data: np.ndarray, diverged: bool) -> None:
        self.data = data
        self.diverged = diverged


class BatchedNetworkEvaluator:
    """Evaluate many fault configurations of a network in one sweep.

    The chain runs *once*, shared, up to the first faulted segment (the
    golden activation entering it comes from the golden trace — clean
    prefix reuse for every later sweep). Past it, each Conv2d, Dense and
    BatchNorm runs one handler, faulted or not, on a ``(k, ...)`` stack of
    row parameters: faulted copies of a fault target, a zero-copy
    broadcast of any other parameter (a Conv2d's handler is one call of
    ``conv2d``'s kernel over its stack). Sequential and BasicBlock are
    descended into; see the module docstring for the bit-identity rule.

    Construction runs no forward: it reads the verified chain and the
    golden activation entering the cut from the injector's
    :class:`~repro.core.prefix.GoldenTrace` (whose first request runs and
    verifies the chain, once per trace), and assigns every fault target to
    the chain step owning it. It raises when the model cannot be
    decomposed-and-verified, a module past the cut has no handler, or the
    campaign has non-parameter surfaces, so callers can fall back to the
    standard path.
    """

    def __init__(self, injector) -> None:
        if not injector._parameter_only():
            raise ValueError("the segment engine supports parameter surfaces only")
        for _, module in injector.model.named_modules():
            if module.training:
                raise ValueError("batched evaluation requires eval-mode models")
        self.injector = injector
        steps, activations = injector.trace.chain()
        #: the verified forward chain
        self.steps = steps
        #: dotted target name → index of the chain step owning it
        self.owners: dict[str, int] = {}
        for target in sorted(name for name, _ in injector.parameter_targets):
            owner = next(
                (
                    index
                    for index, step in enumerate(steps)
                    if step.module is not None and target.startswith(step.name + ".")
                ),
                None,
            )
            if owner is None:
                raise ValueError(f"target {target!r} not owned by any chain step")
            self.owners[target] = owner
        #: static prefix cut: the first chain step any fault target lives in
        self.cut = min(self.owners.values())
        for step in steps[self.cut:]:
            if step.module is None:
                continue
            for name, module in step.module.named_modules(f"{step.name}."):
                if not isinstance(module, _HANDLED) and (module._modules or module._parameters):
                    raise TypeError(f"no batched handler for {type(module).__name__} ({name!r})")
        #: golden activation entering ``steps[cut]``
        self.prefix = activations[self.cut]

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate_logits(self, configurations: ConfigurationBlock, guard=None) -> np.ndarray:
        """Logits per configuration row, shape ``(k, B, classes)``.

        Row ``i`` is bit-identical to the logits the standard statistic
        computes for configuration ``i`` (``apply_configuration`` +
        ``model(x)``; property-tested at the uint level, which is
        NaN-safe). The caller owns hazard accounting — score the stack
        with the campaign's
        :meth:`~repro.core.hazard.NumericalHazardGuard.score_rows`, which
        equals scoring each ``logits[i]`` as the standard statistic does.
        Passing that guard here additionally counts the FP error events
        (overflow/invalid) the sweep raises; without one they are
        silenced. Event *counts* are op-granular diagnostics and differ
        from the standard statistic's — the scored errors do not.

        Golden rows: a row that flips no bit (zero in
        :attr:`~repro.faults.configuration.ConfigurationBlock.flips`)
        is the golden forward, so its row is the golden trace's verified
        logits and only the live rows go through :meth:`run_segments`. A
        block without live rows runs no segment and returns a read-only
        broadcast of the golden logits; a mixed block returns one stack in
        the original row order.
        """
        if not configurations:
            raise ValueError("need at least one configuration")
        golden = self.injector.trace.logits
        stack = np.broadcast_to(golden, (len(configurations),) + golden.shape)
        live = np.flatnonzero(configurations.flips)
        if not live.size:
            return stack
        rows = configurations if live.size == len(configurations) else configurations.select(live)
        # steps[cut] owns a fault target, so the final state is always the
        # diverged (k, B, classes) stack
        logits = self.run_segments(rows, self.prefix, self.cut, diverged=False, guard=guard).data
        if rows is configurations:
            return logits
        stack = stack.copy()
        stack[live] = logits
        return stack

    def run_segments(
        self,
        configurations: ConfigurationBlock,
        activation: np.ndarray,
        start: int,
        diverged: bool,
        guard=None,
        boundaries: list[_State] | None = None,
    ) -> _State:
        """Run ``steps[start:]`` over an explicit entry activation.

        The primitive every fast path runs through: :meth:`evaluate_logits`
        enters at the static cut, :mod:`repro.core.delta` at cached segment
        boundaries. ``activation`` is the array entering ``steps[start]`` —
        shared ``(B, ...)`` when ``diverged`` is False, or stacked
        ``(k, B, ...)`` with rows aligned to the block's rows otherwise. The same
        bit-identity argument as :meth:`evaluate_logits` applies segment by
        segment, so per-row results equal the standard statistic's faulted
        forwards whenever ``activation`` itself is bit-identical to the
        standard forward's activation entering ``start``. When ``boundaries`` is a list, the
        state entering each subsequent step (ending with the logits state)
        is appended in step order. Returns the final state; its ``data``
        holds the logits, still shared when no faulted layer was crossed.
        """
        if not configurations:
            raise ValueError("need at least one configuration")
        errstate = guard.capture() if guard is not None else np.errstate(all="ignore")
        with no_grad(), errstate:
            state = _State(activation, diverged)
            for step in self.steps[start:]:
                state = self._run_module(step.module, step.name, state, configurations)
                if boundaries is not None:
                    boundaries.append(state)
        return state

    # ------------------------------------------------------------------ #
    # module dispatch
    # ------------------------------------------------------------------ #

    def _touched(self, name: str) -> bool:
        return any(target.startswith(name + ".") for target in self.owners)

    def _run_module(
        self,
        module: Module | None,
        name: str,
        state: _State,
        configurations: ConfigurationBlock,
    ) -> _State:
        if module is None:  # MLP's synthetic input flatten
            data = state.data
            keep = 2 + (1 if state.diverged else 0)
            if data.ndim > keep:
                data = data.reshape(data.shape[: keep - 1] + (-1,))
            return _State(data, state.diverged)
        if not state.diverged and not self._touched(name):
            return _State(module(Tensor(state.data)).data, False)
        if isinstance(module, Dense):
            handler = self._run_dense
        elif isinstance(module, Conv2d):
            handler = self._run_conv
        elif isinstance(module, _BatchNorm):
            handler = self._run_norm
        elif isinstance(module, BasicBlock):
            handler = self._run_block
        elif isinstance(module, Sequential):
            handler = self._run_sequential
        else:  # a parameter-free leaf (construction checks)
            return _State(self._fold(module, state.data), True)
        # Handlers run outside Module.__call__, where profile_module's hooks
        # bill layers; bill the layer to the profiler here instead.
        profiler = obs_profile.ACTIVE
        if profiler is None:
            return handler(module, name, state, configurations)
        profiler._layer_enter(name)
        state = handler(module, name, state, configurations)
        profiler._layer_exit(name)
        return state

    @staticmethod
    def _fold(module: Module, data: np.ndarray, /) -> np.ndarray:
        """Run a parameter-free leaf once over the folded ``(k*B, ...)`` batch.

        Bit-identical to ``k`` separate calls because such a leaf is
        elementwise (ReLU) or per-sample (pooling, flatten): no GEMM, no
        reduction across samples.
        """
        k, batch = data.shape[0], data.shape[1]
        folded = data.reshape((k * batch,) + data.shape[2:])
        out = module(Tensor(folded)).data
        return out.reshape((k, batch) + out.shape[1:])

    def _stacked_parameter(
        self, configurations: ConfigurationBlock, name: str, golden: np.ndarray
    ) -> np.ndarray:
        """(k, *shape) row copies of one parameter.

        A parameter that is no fault target is a zero-copy broadcast of the
        golden array. A target's rows are faulted copies: the block's fold
        of the target (:meth:`ConfigurationBlock.fold`) already addresses
        the flattened stack, so every row's flips go in with one
        fancy-index XOR. Each ``(row, element)`` index is unique, so the
        XOR equals a per-row one exactly.
        """
        k = len(configurations)
        if name not in self.owners:
            return np.broadcast_to(golden, (k,) + golden.shape)
        stack = np.empty((k,) + golden.shape, dtype=golden.dtype)
        stack[...] = golden
        with obs.span("flip.sparse"):
            index, lanes = configurations.fold(name)
            if index.size:
                stack.reshape(-1).view(np.uint32)[index] ^= lanes
        return stack

    def _run_dense(
        self, module: Dense, name: str, state: _State, configurations: ConfigurationBlock
    ) -> _State:
        weights = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        # (B, in) @ (k, in, out) and (k, B, in) @ (k, in, out) both broadcast
        # to (k, B, out); matmul loops one (B, in) @ (in, out) GEMM per row,
        # the sequential x @ W call.
        out = np.matmul(state.data, weights)
        if module.bias is not None:
            biases = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
            out = out + biases[:, None, :]
        return _State(out, True)

    def _run_conv(
        self, module: Conv2d, name: str, state: _State, configurations: ConfigurationBlock
    ) -> _State:
        weights = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        biases = None
        if module.bias is not None:
            biases = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
        rows = conv2d_forward(state.data, weights, biases, module.stride, module.padding)[0]
        return _State(np.stack(rows), True)

    def _run_norm(
        self, module: _BatchNorm, name: str, state: _State, configurations: ConfigurationBlock
    ) -> _State:
        shape = (1, module.num_features) + (1,) * (len(module._param_shape) - 1)
        mean = module.running_mean.reshape(shape)
        var = module.running_var.reshape(shape)
        # Mirror _BatchNorm.forward's ops exactly (eps is a weak scalar in
        # both); the in-place ones compute the same bits with fewer copies.
        normalised = state.data - mean
        normalised /= np.sqrt(var + module.eps)
        gammas = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        betas = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
        stacked_shape = (len(configurations), 1) + shape[1:]
        out = normalised * gammas.reshape(stacked_shape)
        out += betas.reshape(stacked_shape)
        return _State(out, True)

    def _run_sequential(
        self, module: Sequential, name: str, state: _State, configurations: ConfigurationBlock
    ) -> _State:
        for child_name, child in module._modules.items():
            state = self._run_module(child, f"{name}.{child_name}", state, configurations)
        return state

    def _run_block(
        self, module: BasicBlock, name: str, state: _State, configurations: ConfigurationBlock
    ) -> _State:
        out = self._run_module(module.conv1, f"{name}.conv1", state, configurations)
        out = self._run_module(module.bn1, f"{name}.bn1", out, configurations)
        out = self._run_module(module.relu1, f"{name}.relu1", out, configurations)
        out = self._run_module(module.conv2, f"{name}.conv2", out, configurations)
        out = self._run_module(module.bn2, f"{name}.bn2", out, configurations)
        shortcut = self._run_module(module.shortcut, f"{name}.shortcut", state, configurations)
        # Residual add mirrors `out + self.shortcut(x)`; a shared operand
        # broadcasts over the configurations axis bit-identically.
        merged = _State(out.data + shortcut.data, out.diverged or shortcut.diverged)
        return self._run_module(module.relu2, f"{name}.relu2", merged, configurations)

