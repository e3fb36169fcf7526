"""BDLFI core: the paper's primary contribution.

The :class:`~repro.core.injector.BayesianFaultInjector` realises the
four-step procedure of Section II:

1. *train* the golden network (done upstream, via :mod:`repro.train`);
2. *create the error distribution* over the network weights from the bit
   flip fault model (:mod:`repro.faults`);
3. *create a Bayesian fault model* for each neuron — the explicit DBN is
   available from :func:`~repro.core.bayesian_network.build_fault_network`;
4. *perform inference* with MCMC (:mod:`repro.mcmc`) to obtain the
   classification uncertainty for different flip probabilities.

On top sit the experiment drivers: probability sweeps with knee/regime
detection (Figs. 2 and 4), layerwise campaigns with depth-correlation
analysis (Fig. 3), decision-boundary error mapping (Fig. 1 ③), the
completeness-driven adaptive campaign (advantage #1), and the
Hamming-weight-stratified accelerated estimator (advantage #2).
"""

from repro.core.injector import BayesianFaultInjector
from repro.core.campaign import CampaignResult
from repro.core.posterior import ErrorPosterior
from repro.core.bayesian_network import build_fault_network, MaskDistribution
from repro.core.sweep import ProbabilitySweep, SweepPoint
from repro.core.layerwise import LayerwiseCampaign, LayerResult
from repro.core.boundary import DecisionBoundaryAnalysis, BoundaryMap
from repro.core.knee import fit_two_regimes, TwoRegimeFit
from repro.core.stratified import StratifiedErrorEstimator, StratifiedEstimate
from repro.core.outcomes import OutcomeCampaign, ConfigurationOutcome
from repro.core.assessment import ResilienceAssessment, assess_model
from repro.core.tracing import PropagationTrace, LayerDivergence, trace_fault_propagation
from repro.core.batched import BatchedNetworkEvaluator
from repro.core.prefix import ChainStep, GoldenTrace, forward_chain, run_chain
from repro.core.hazard import HazardReport, NumericalHazardGuard, hazard_aware_error

__all__ = [
    "BayesianFaultInjector",
    "CampaignResult",
    "ErrorPosterior",
    "build_fault_network",
    "MaskDistribution",
    "ProbabilitySweep",
    "SweepPoint",
    "LayerwiseCampaign",
    "LayerResult",
    "DecisionBoundaryAnalysis",
    "BoundaryMap",
    "fit_two_regimes",
    "TwoRegimeFit",
    "StratifiedErrorEstimator",
    "StratifiedEstimate",
    "OutcomeCampaign",
    "ConfigurationOutcome",
    "ResilienceAssessment",
    "assess_model",
    "PropagationTrace",
    "LayerDivergence",
    "trace_fault_propagation",
    "BatchedNetworkEvaluator",
    "ChainStep",
    "GoldenTrace",
    "forward_chain",
    "run_chain",
    "HazardReport",
    "NumericalHazardGuard",
    "hazard_aware_error",
]
