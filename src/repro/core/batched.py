"""The segment engine: the one fast faulted-forward primitive.

A campaign's cost is #configurations × one faulted forward pass.
:class:`BatchedNetworkEvaluator` runs ``k`` fault configurations through
the model's verified forward chain (:func:`repro.core.prefix.forward_chain`:
MLP, Sequential, LeNet, ResNet) in one sweep. The chain runs *shared* up to
the first faulted segment, the ``k`` faulted conv/dense/norm tensors are
stacked and contracted in one einsum over the shared input, and every
untouched downstream module runs once on the ``k`` diverged activations
folded into the batch axis.

Every fast path of :class:`~repro.core.injector.BayesianFaultInjector`
goes through :meth:`BatchedNetworkEvaluator.run_segments`:

* forward campaigns score configurations in chunks (:meth:`evaluate_logits`);
* the single-configuration statistic is a one-row sweep (``k = 1``);
* MCMC and tempered chains recompute from cached segment boundaries
  (:mod:`repro.core.delta`).

One row class skips it:

* golden rows — a configuration that flips no bit is the golden forward,
  so :meth:`BatchedNetworkEvaluator.evaluate_logits` takes its row from
  the golden trace's verified logits and runs only the live rows. A layer
  of ``n`` parameters draws no flip with probability ``(1-p)^(32n)``, so
  at small ``p`` most single-layer samples of a small layer are golden.

All of them are bit-identical to ``apply_configuration`` + ``model(x)``,
the standard path — enforced by the differential fast-path tests.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.faults.configuration import FaultConfiguration
from repro.nn.containers import Sequential
from repro.nn.conv import Conv2d
from repro.nn.layers import Dense
from repro.nn.models.resnet import BasicBlock
from repro.nn.module import Module
from repro.nn.norm import _BatchNorm
from repro.tensor.functional import im2col_window
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["BatchedNetworkEvaluator"]


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

    Three mechanisms keep the sweep bit-identical to ``k`` sequential
    faulted forwards while doing far less work:

    * the chain runs *once*, shared, up to the first faulted segment (the
      golden activation entering it comes from the golden trace — clean
      prefix reuse for every later sweep);
    * a faulted Conv2d/Dense/BatchNorm contracts all ``k`` stacked faulted
      parameter tensors against the shared input in one einsum/GEMM
      (conv builds its patch matrix with one ``np.take`` through the
      cached flat index of :func:`~repro.tensor.functional.im2col_window`,
      shared across configurations, or over the folded ``k*B`` rows of a
      diverged input);
    * every untouched module after the divergence point runs once with the
      ``k`` axis folded into the batch axis — valid because eval-mode
      modules are batch-independent.

    Construction runs no forward: it reads the verified chain and the
    golden activation entering the cut from the injector's
    :class:`~repro.core.prefix.GoldenTrace` (whose first request runs and
    verifies the chain, once per trace), and assigns every fault target to
    the chain step owning it. It raises when the model cannot be
    decomposed-and-verified or the campaign has non-parameter surfaces, so
    callers can fall back to the standard path.
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
            self._check_touched_modules(steps[owner].module, steps[owner].name, target)
            self.owners[target] = owner
        #: static prefix cut: the first chain step any fault target lives in
        self.cut = min(self.owners.values())
        #: golden activation entering ``steps[cut]``
        self.prefix = activations[self.cut]

    def _check_touched_modules(self, module: Module, name: str, target: str) -> None:
        """Ensure the leaf module owning ``target`` has a batched handler."""
        leaf_types = (Dense, Conv2d, _BatchNorm)
        if isinstance(module, leaf_types):
            return
        if isinstance(module, (Sequential, BasicBlock)):
            for child_name, child in module._modules.items():
                prefix = f"{name}.{child_name}"
                if target.startswith(prefix + "."):
                    self._check_touched_modules(child, prefix, target)
                    return
        raise TypeError(
            f"no batched handler for faulted module {type(module).__name__} ({name!r})"
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate_logits(
        self, configurations: list[FaultConfiguration], guard=None
    ) -> np.ndarray:
        """Logits per configuration, shape ``(k, B, classes)``.

        Bit-identical to running each configuration through
        ``apply_configuration`` + ``model(x)`` sequentially (property-tested
        at the uint level, which is NaN-safe). The caller owns hazard
        accounting — score the stack with the campaign's
        :meth:`~repro.core.hazard.NumericalHazardGuard.score_rows`, which
        equals scoring each ``logits[i]`` as the sequential statistic
        does. Passing that guard here additionally
        counts the FP error events (overflow/invalid) the sweep raises;
        without one they are silenced. Event *counts* are op-granular
        diagnostics and differ from the sequential path's — the scored
        errors do not.

        Golden rows: a configuration that flips no bit
        (:meth:`~repro.faults.configuration.FaultConfiguration.is_empty`)
        is the golden forward, so its row is the golden trace's verified
        logits and only the live rows go through :meth:`run_segments`. A
        chunk without live rows runs no segment and returns a read-only
        broadcast of the golden logits; a mixed chunk returns one stack in
        the original row order.
        """
        if not configurations:
            raise ValueError("need at least one configuration")
        golden = self.injector.trace.logits
        stack = np.broadcast_to(golden, (len(configurations),) + golden.shape)
        live = [i for i, configuration in enumerate(configurations) if not configuration.is_empty()]
        if not live:
            return stack
        rows = [configurations[i] for i in live]
        # steps[cut] owns a fault target, so the final state is always the
        # diverged (k, B, classes) stack
        logits = self.run_segments(rows, self.prefix, self.cut, diverged=False, guard=guard).data
        if len(rows) == len(configurations):
            return logits
        stack = stack.copy()
        stack[live] = logits
        return stack

    def run_segments(
        self,
        configurations: list[FaultConfiguration],
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
        ``(k, B, ...)`` with rows aligned to ``configurations`` otherwise. The same
        bit-identity argument as :meth:`evaluate_logits` applies segment by
        segment, so per-row results equal sequential faulted forwards
        whenever ``activation`` itself is bit-identical to the sequential
        activation entering ``start``. When ``boundaries`` is a list, the
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
        configurations: list[FaultConfiguration],
    ) -> _State:
        if module is None:  # MLP's synthetic input flatten
            data = state.data
            keep = 2 + (1 if state.diverged else 0)
            if data.ndim > keep:
                data = data.reshape(data.shape[: keep - 1] + (-1,))
            return _State(data, state.diverged)
        if not self._touched(name):
            if not state.diverged:
                return _State(module(Tensor(state.data)).data, False)
            if isinstance(module, Dense):
                # Folding k into the batch axis would change the GEMM's row
                # count, and BLAS kernel selection by M is not bit-stable.
                # Broadcasting over the leading k axis keeps each slice the
                # exact (B, in) @ (in, out) call the sequential path makes.
                out = np.matmul(state.data, module.weight.data)
                if module.bias is not None:
                    out = out + module.bias.data
                return _State(out, True)
            return _State(self._fold(module, state.data), True)
        if isinstance(module, Dense):
            return self._run_dense(module, name, state, configurations)
        if isinstance(module, Conv2d):
            return self._run_conv(module, name, state, configurations)
        if isinstance(module, _BatchNorm):
            return self._run_norm(module, name, state, configurations)
        if isinstance(module, BasicBlock):
            return self._run_block(module, name, state, configurations)
        if isinstance(module, Sequential):
            for child_name, child in module._modules.items():
                state = self._run_module(child, f"{name}.{child_name}", state, configurations)
            return state
        raise TypeError(  # pragma: no cover — construction validates this
            f"no batched handler for faulted module {type(module).__name__}"
        )

    @staticmethod
    def _fold(module: Module, data: np.ndarray, /) -> np.ndarray:
        """Run an untouched module once over the folded ``(k*B, ...)`` batch.

        Bit-identical to ``k`` separate calls because every eval-mode module
        here is batch-independent (elementwise, per-sample pooling, or
        frozen-statistics normalisation).
        """
        k, batch = data.shape[0], data.shape[1]
        folded = data.reshape((k * batch,) + data.shape[2:])
        out = module(Tensor(folded)).data
        return out.reshape((k, batch) + out.shape[1:])

    def _stacked_parameter(
        self, configurations: list[FaultConfiguration], name: str, golden: np.ndarray
    ) -> np.ndarray:
        """(k, *shape) faulted copies of one parameter.

        All rows' sparse masks are applied in one fancy-index XOR over the
        flattened stack. Each row's elements are unique, so every
        ``(row, element)`` pair is too, and the XOR equals a per-row one
        exactly.
        """
        k = len(configurations)
        stack = np.empty((k,) + golden.shape, dtype=golden.dtype)
        stack[...] = golden
        bits = stack.reshape(-1).view(np.uint32)
        with obs.phase("flip.sparse"):
            indices, lane_masks = [], []
            for i, configuration in enumerate(configurations):
                if name in configuration and configuration.touches(name):
                    sparse = configuration.sparse(name)
                    indices.append(sparse.elements + i * golden.size)
                    lane_masks.append(sparse.lane_masks)
            if indices:
                bits[np.concatenate(indices)] ^= np.concatenate(lane_masks)
        return stack

    def _run_dense(
        self, module: Dense, name: str, state: _State, configurations: list[FaultConfiguration]
    ) -> _State:
        weights = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        # (B, in) @ (k, in, out) and (k, B, in) @ (k, in, out) both broadcast
        # to (k, B, out), each k-slice an independent GEMM — bit-identical to
        # the sequential x @ W.
        out = np.matmul(state.data, weights)
        if module.bias is not None:
            biases = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
            out = out + biases[:, None, :]
        return _State(out, True)

    def _run_conv(
        self, module: Conv2d, name: str, state: _State, configurations: list[FaultConfiguration]
    ) -> _State:
        weights = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        k = len(configurations)
        size, stride, padding = module.kernel_size, module.stride, module.padding
        data = state.data
        window = im2col_window(data.shape, size, size, stride, padding)
        w_mat = weights.reshape(k, module.out_channels, -1)
        # (C*kh*kw, P, rows): one take for all k, rows innermost in memory
        # as the indexed gather laid them out
        patches = window.gather(data, features_major=True)
        if state.diverged:
            cols = patches.reshape(patches.shape[:2] + data.shape[:2]).transpose(2, 3, 0, 1)  # (k, B, C*kh*kw, P)
            out = np.einsum("kof,kbfp->kbop", w_mat, cols, optimize=True)
        else:
            cols = patches.transpose(2, 0, 1)  # (B, C*kh*kw, P)
            out = np.einsum("kof,bfp->kbop", w_mat, cols, optimize=True)
        if module.bias is not None:
            biases = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
            out = out + biases[:, None, :, None]
        batch = data.shape[1] if state.diverged else data.shape[0]
        return _State(out.reshape(k, batch, module.out_channels, window.out_h, window.out_w), True)

    def _run_norm(
        self, module: _BatchNorm, name: str, state: _State, configurations: list[FaultConfiguration]
    ) -> _State:
        shape = (1, module.num_features) + (1,) * (len(module._param_shape) - 1)
        mean = module.running_mean.reshape(shape)
        var = module.running_var.reshape(shape)
        # Mirror _BatchNorm.forward exactly: eps is a weak scalar in both.
        normalised = (state.data - mean) / np.sqrt(var + module.eps)
        gammas = self._stacked_parameter(configurations, f"{name}.weight", module.weight.data)
        betas = self._stacked_parameter(configurations, f"{name}.bias", module.bias.data)
        k = len(configurations)
        stacked_shape = (k, 1) + shape[1:]
        out = normalised * gammas.reshape(stacked_shape) + betas.reshape(stacked_shape)
        return _State(out, True)

    def _run_block(
        self, module: BasicBlock, name: str, state: _State, configurations: list[FaultConfiguration]
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
