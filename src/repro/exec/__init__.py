"""repro.exec — declarative campaign specs and parallel execution.

The execution layer separates *what* a campaign is (a frozen, validated
:class:`~repro.exec.specs.CampaignSpec`) from *where* it runs (in-process
via :meth:`BayesianFaultInjector.run`, or across a worker pool via
:class:`~repro.exec.executor.ParallelCampaignExecutor`). Because every
campaign draws only from named RNG substreams, the two are bit-identical.

Quick example::

    from repro.exec import ForwardSpec, InjectorRecipe, ParallelCampaignExecutor

    specs = [ForwardSpec(p=p, samples=200) for p in p_grid]
    recipe = InjectorRecipe.from_model(model, eval_x, eval_y, seed=42,
                                       model_builder=build_model)
    campaigns = ParallelCampaignExecutor(recipe, workers=4).run(specs)
"""

from repro.exec.specs import (
    AdaptiveSpec,
    CampaignSpec,
    ForwardSpec,
    McmcSpec,
    StratifiedSpec,
    TemperedSpec,
    TemperingSpec,
)
from repro.exec.chaos import (
    ChaosError,
    ChaosPlan,
    ChaosRule,
    chaos_enabled,
)
from repro.exec.executor import (
    CampaignExecutionError,
    CampaignTask,
    ExecutionStats,
    FailedTask,
    InjectorRecipe,
    ParallelCampaignExecutor,
)
from repro.exec.journal import (
    CampaignJournal,
    JournalError,
    JournalMismatchError,
    JournalWriteError,
    campaign_fingerprint,
    journal_key,
    task_key,
)

__all__ = [
    "CampaignSpec",
    "ForwardSpec",
    "McmcSpec",
    "TemperedSpec",
    "TemperingSpec",
    "AdaptiveSpec",
    "StratifiedSpec",
    "InjectorRecipe",
    "CampaignTask",
    "ExecutionStats",
    "FailedTask",
    "ParallelCampaignExecutor",
    "CampaignExecutionError",
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "chaos_enabled",
    "CampaignJournal",
    "JournalError",
    "JournalMismatchError",
    "JournalWriteError",
    "campaign_fingerprint",
    "journal_key",
    "task_key",
]
