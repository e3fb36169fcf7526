"""Shared fixtures for the observability tests.

Every test runs inside its own empty :class:`repro.obs.Session` (and
with the library verbosity restored), so instruments a test attaches
never leak into the next one.
"""

import functools

import pytest

import repro.obs as obs
from repro.core import BayesianFaultInjector
from repro.exec import InjectorRecipe
from repro.faults import TargetSpec
from repro.nn import paper_mlp
from repro.utils.logging import get_verbosity, set_verbosity


@pytest.fixture(autouse=True)
def clean_obs():
    verbosity = get_verbosity()
    with obs.Session():
        yield
    set_verbosity(verbosity)


@pytest.fixture()
def make_injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval

    def make():
        return BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=7
        )

    return make


@pytest.fixture()
def recipe(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return InjectorRecipe.from_model(
        trained_mlp,
        eval_x,
        eval_y,
        spec=TargetSpec.weights_and_biases(),
        seed=7,
        model_builder=functools.partial(paper_mlp, rng=0),
    )
