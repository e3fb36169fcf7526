"""The training loop.

:class:`Trainer` runs mini-batch gradient descent over a
:class:`~repro.data.loader.DataLoader`, tracking loss and accuracy per
epoch, with optional validation and LR scheduling. Deliberately simple —
enough to produce the golden networks the paper's campaigns start from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad
from repro.train.losses import CrossEntropyLoss
from repro.train.metrics import accuracy
from repro.train.optim import Optimizer
from repro.train.schedules import _Schedule
from repro.utils.logging import get_logger

__all__ = ["Trainer", "TrainResult"]

_LOGGER = get_logger("train")


@dataclass
class TrainResult:
    """Per-epoch history of a training run."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracy[-1] if self.train_accuracy else float("nan")

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracy[-1] if self.val_accuracy else float("nan")


class Trainer:
    """Mini-batch trainer for classification models.

    Parameters
    ----------
    model:
        Module mapping a batch tensor to logits.
    optimizer:
        Any :class:`~repro.train.optim.Optimizer` over the model parameters.
    loss_fn:
        Callable ``(logits, labels) -> Tensor``; defaults to cross-entropy.
    schedule:
        Optional learning-rate schedule stepped once per epoch.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Callable | None = None,
        schedule: _Schedule | None = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn or CrossEntropyLoss()
        self.schedule = schedule

    def fit(self, train_loader, epochs: int, val_loader=None) -> TrainResult:
        """Train for ``epochs`` passes over ``train_loader``.

        ``train_loader``/``val_loader`` yield ``(inputs, labels)`` with
        numpy arrays; see :class:`repro.data.DataLoader`.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        result = TrainResult()
        for epoch in range(epochs):
            if self.schedule is not None:
                self.schedule.step(epoch)
            loss, acc = self._run_epoch(train_loader)
            result.train_loss.append(loss)
            result.train_accuracy.append(acc)
            message = f"epoch {epoch}: loss={loss:.4f} acc={acc:.4f}"
            if val_loader is not None:
                val_acc = self.evaluate(val_loader)
                result.val_accuracy.append(val_acc)
                message += f" val_acc={val_acc:.4f}"
            _LOGGER.info(message)
        return result

    def _run_epoch(self, loader) -> tuple[float, float]:
        self.model.train()
        total_loss = 0.0
        total_correct = 0.0
        total_count = 0
        for inputs, labels in loader:
            x = Tensor(inputs)
            logits = self.model(x)
            loss = self.loss_fn(logits, labels)
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            batch = len(labels)
            total_loss += loss.item() * batch
            total_correct += accuracy(logits, labels) * batch
            total_count += batch
        if total_count == 0:
            raise ValueError("loader produced no batches")
        return total_loss / total_count, total_correct / total_count

    def evaluate(self, loader) -> float:
        """Accuracy of the model (eval mode, no grad) over ``loader``."""
        self.model.eval()
        correct = 0.0
        count = 0
        with no_grad():
            for inputs, labels in loader:
                logits = self.model(Tensor(inputs))
                correct += accuracy(logits, labels) * len(labels)
                count += len(labels)
        self.model.train()
        if count == 0:
            raise ValueError("loader produced no batches")
        return correct / count
