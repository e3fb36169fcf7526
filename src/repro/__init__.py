"""repro — BDLFI: Bayesian Deep Learning based Fault Injection.

A full reproduction of *"Towards a Bayesian Approach for Assessing Fault
Tolerance of Deep Neural Networks"* (Banerjee, Cyriac, Jha, Kalbarczyk,
Iyer — DSN 2019), including every substrate the paper depends on, built
from scratch on numpy:

============  =========================================================
subpackage    role
============  =========================================================
``tensor``    reverse-mode autodiff engine (the differentiable substrate)
``nn``        layers, hooks, and the model zoo (paper MLP, ResNet-18)
``train``     losses / optimizers / Trainer / checkpoints (golden runs)
``data``      2-D toys and the procedural CIFAR-10 stand-in
``bits``      IEEE-754 float32 bit manipulation and mask sampling
``faults``    fault models (Bernoulli AVF et al.), targets, injection
``bayes``     distributions and Bayesian-network graphs (Fig. 1 ②)
``mcmc``      samplers, convergence diagnostics, completeness criterion
``core``      BDLFI: campaigns, sweeps, layerwise & boundary studies
``baselines`` traditional random/exhaustive FI comparators
``analysis``  statistics, ASCII figures, result persistence
``utils``     deterministic RNG streams, logging, timing
``sensitivity`` gradient (Taylor) fault-impact prediction & bit search
``protect``   selective ECC-style protection schemes and allocation
``moments``   analytic (ADF) propagation of fault distributions
``cli``       ``python -m repro`` train/campaign/sweep/assess commands
============  =========================================================

Quickstart::

    from repro.core import BayesianFaultInjector
    from repro.faults import TargetSpec

    injector = BayesianFaultInjector(model, x_eval, y_eval,
                                     spec=TargetSpec.weights_and_biases(),
                                     seed=42)
    campaign = injector.forward_campaign(p=1e-3, samples=500)
    print(campaign.posterior)            # error distribution vs golden run
    print(injector.run_until_complete(1e-3).completeness)  # stop-when-mixed
"""

from repro.core.injector import BayesianFaultInjector
from repro.exec.executor import InjectorRecipe, ParallelCampaignExecutor
from repro.exec.specs import (
    AdaptiveSpec,
    CampaignSpec,
    ForwardSpec,
    McmcSpec,
    StratifiedSpec,
    TemperedSpec,
    TemperingSpec,
)
from repro.faults.targets import FaultSurface, TargetSpec
from repro.faults.bernoulli import BernoulliBitFlipModel

__version__ = "1.1.0"

__all__ = [
    "BayesianFaultInjector",
    "CampaignSpec",
    "ForwardSpec",
    "McmcSpec",
    "TemperedSpec",
    "TemperingSpec",
    "AdaptiveSpec",
    "StratifiedSpec",
    "InjectorRecipe",
    "ParallelCampaignExecutor",
    "FaultSurface",
    "TargetSpec",
    "BernoulliBitFlipModel",
    "__version__",
]
