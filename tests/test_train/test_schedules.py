"""Learning-rate schedules."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.train import SGD, ConstantLR, CosineAnnealingLR, StepLR


def _opt(lr=1.0):
    return SGD([Parameter(np.ones(1, dtype=np.float32))], lr=lr)


class TestConstant:
    def test_never_changes(self):
        opt = _opt(0.5)
        schedule = ConstantLR(opt)
        for epoch in (0, 10, 1000):
            assert schedule.step(epoch) == 0.5


class TestStep:
    def test_decays_every_step_size(self):
        schedule = StepLR(_opt(1.0), step_size=10, gamma=0.1)
        assert schedule.lr_at(0) == 1.0
        assert schedule.lr_at(9) == 1.0
        assert schedule.lr_at(10) == pytest.approx(0.1)
        assert schedule.lr_at(25) == pytest.approx(0.01)

    def test_step_mutates_optimizer(self):
        opt = _opt(1.0)
        StepLR(opt, step_size=1, gamma=0.5).step(epoch=2)
        assert opt.lr == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLR(_opt(), step_size=0)


class TestCosine:
    def test_endpoints(self):
        schedule = CosineAnnealingLR(_opt(1.0), t_max=100, eta_min=0.1)
        assert schedule.lr_at(0) == pytest.approx(1.0)
        assert schedule.lr_at(100) == pytest.approx(0.1)

    def test_midpoint(self):
        schedule = CosineAnnealingLR(_opt(1.0), t_max=100)
        assert schedule.lr_at(50) == pytest.approx(0.5)

    def test_monotone_decreasing(self):
        schedule = CosineAnnealingLR(_opt(1.0), t_max=50)
        values = [schedule.lr_at(e) for e in range(51)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_clamps_past_t_max(self):
        schedule = CosineAnnealingLR(_opt(1.0), t_max=10, eta_min=0.0)
        assert schedule.lr_at(99) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(_opt(), t_max=0)
