"""Command-line interface: golden-run training and injection campaigns.

Usage (after ``pip install -e .``):

.. code-block:: console

   python -m repro train mlp-moons --out golden.npz
   python -m repro campaign golden.npz --workbench mlp-moons --p 1e-3
   python -m repro sweep golden.npz --workbench mlp-moons --workers 4
   python -m repro layerwise golden.npz --workbench mlp-moons --p 5e-3 --workers 4
   python -m repro boundary golden.npz --workbench mlp-moons

``--workers N`` (campaign/sweep/layerwise) fans the independent campaigns
out over N worker processes; results are bit-identical to ``--workers 1``
because every campaign draws only named, seed-derived RNG streams.

``--journal PATH`` (campaign/sweep/layerwise) records every completed
campaign to a crash-safe, fsync'd journal; after a crash, re-running the
same command with ``--resume`` skips completed campaigns and produces
results bit-identical to an uninterrupted run.

``--chaos site=rate[:count],...`` (campaign/sweep/layerwise) injects
deterministic, seeded infrastructure faults (worker SIGKILL, torn journal
tails, failing fsyncs — see :mod:`repro.exec.chaos`) to rehearse the
recovery paths; a chaos run that completes is bit-identical to a clean
one. ``--on-failure degrade`` quarantines poison tasks instead of
aborting, reporting explicit completed/failed accounting;
``--max-attempts`` and ``--backoff`` tune the retry policy.

``--trace PATH`` / ``--metrics PATH`` / ``--progress [PATH]``
(campaign/sweep/layerwise/assess) turn on the :mod:`repro.obs`
instrumentation: a Chrome-trace JSON timeline (open in Perfetto), the
reduced campaign metrics digest, and a live progress stream (MCMC mixing
diagnostics, sweep points, worker heartbeats) to stderr or a JSONL file.
Instrumented runs are bit-identical to bare ones.

``--serve [HOST:]PORT`` adds a live HTTP telemetry surface while the run
executes — ``/status`` (JSON progress + ETA), ``/metrics`` (OpenMetrics
for Prometheus), ``/events`` (SSE event stream), ``/healthz`` — and
``repro top <url|progress.jsonl>`` renders it as a terminal dashboard.
``--flight-recorder [DIR]`` keeps a bounded in-memory ring of recent
events and dumps a postmortem bundle on campaign abort/degrade or
SIGUSR1 (see :mod:`repro.obs.flight`).

A *workbench* bundles a model architecture with its matched dataset, both
reproducible from seeds, so a checkpoint plus a workbench name fully
determines an experiment. Available workbenches: ``mlp-moons`` (the paper's
Fig. 1 MLP on two-moons), ``mlp-images`` (small image MLP, Fig. 2 setup),
``resnet-images`` (reduced-width ResNet-18, Figs. 3/4 setup), and
``lenet-images``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro.obs as obs
from repro.analysis import format_table, heatmap, line_plot
from repro.core import BayesianFaultInjector, DecisionBoundaryAnalysis, LayerwiseCampaign, ProbabilitySweep
from repro.data import ArrayDataset, DataLoader, SyntheticImageConfig, make_synthetic_images, two_moons
from repro.exec import (
    AdaptiveSpec,
    CampaignJournal,
    ChaosError,
    ChaosPlan,
    ForwardSpec,
    InjectorRecipe,
    JournalError,
    McmcSpec,
    ParallelCampaignExecutor,
    TemperedSpec,
    TemperingSpec,
    campaign_fingerprint,
)
from repro.faults import BernoulliBitFlipModel, TargetSpec
from repro.nn import LeNet, MLP, paper_mlp
from repro.nn.models import resnet18_cifar_small
from repro.nn.module import Module
from repro.obs.estimator import DEFAULT_MASS, StoppingTarget, publish_outcome
from repro.obs.flight import FlightRecorder
from repro.train import Adam, Trainer, load_checkpoint, save_checkpoint
from repro.utils.persist import atomic_write_json

__all__ = ["main", "build_parser", "WORKBENCHES", "Workbench", "build_workbench_model"]


@dataclass(frozen=True)
class Workbench:
    """A named, reproducible (model, dataset) experiment setup."""

    name: str
    build_model: Callable[[], Module]
    build_data: Callable[[int, int], tuple]  # (train_size, eval_size) → datasets
    default_epochs: int
    lr: float
    #: 2-D input window for the boundary command, or None if unsupported
    boundary_window: tuple[float, float, float, float] | None = None


def _moons_data(train_size: int, eval_size: int):
    train = ArrayDataset(*two_moons(train_size, noise=0.12, rng=0))
    evaluation = ArrayDataset(*two_moons(eval_size, noise=0.12, rng=5))
    return train, evaluation


def _image_data(config: SyntheticImageConfig):
    def build(train_size: int, eval_size: int):
        return make_synthetic_images(config, train_size, eval_size)

    return build


_MLP_IMAGES = SyntheticImageConfig(image_size=6, noise=1.2, seed=11)
_CNN_IMAGES = SyntheticImageConfig(image_size=12, noise=4.5, seed=11)

WORKBENCHES: dict[str, Workbench] = {
    "mlp-moons": Workbench(
        name="mlp-moons",
        build_model=lambda: paper_mlp(rng=0),
        build_data=_moons_data,
        default_epochs=40,
        lr=0.01,
        boundary_window=(-1.5, 2.5, -1.2, 1.7),
    ),
    "mlp-images": Workbench(
        name="mlp-images",
        build_model=lambda: MLP(3 * 6 * 6, (8,), 10, rng=0),
        build_data=_image_data(_MLP_IMAGES),
        default_epochs=20,
        lr=2e-3,
    ),
    "resnet-images": Workbench(
        name="resnet-images",
        build_model=lambda: resnet18_cifar_small(rng=0),
        build_data=_image_data(_CNN_IMAGES),
        default_epochs=8,
        lr=2e-3,
    ),
    "lenet-images": Workbench(
        name="lenet-images",
        build_model=lambda: LeNet(in_channels=3, num_classes=10, image_size=12, rng=0),
        build_data=_image_data(_CNN_IMAGES),
        default_epochs=10,
        lr=1e-3,
    ),
}


# ---------------------------------------------------------------------- #
# shared plumbing
# ---------------------------------------------------------------------- #


def _load_workbench(name: str) -> Workbench:
    if name not in WORKBENCHES:
        raise SystemExit(f"unknown workbench {name!r}; choose from {sorted(WORKBENCHES)}")
    return WORKBENCHES[name]


def build_workbench_model(name: str) -> Module:
    """Construct a workbench's (untrained) architecture by name.

    Module-level so ``functools.partial(build_workbench_model, name)`` is a
    picklable model builder for shipping campaigns to worker processes.
    """
    return _load_workbench(name).build_model()


def _campaign_setup(args) -> tuple[BayesianFaultInjector, InjectorRecipe]:
    """(injector, worker recipe) for the golden checkpoint named by ``args``."""
    workbench = _load_workbench(args.workbench)
    model = workbench.build_model()
    load_checkpoint(model, args.checkpoint)
    _, evaluation = workbench.build_data(args.train_size, args.eval_size)
    features, labels = evaluation.arrays()
    features, labels = features[: args.eval_size], labels[: args.eval_size]
    spec = TargetSpec.weights_and_biases() if args.include_biases else TargetSpec()
    fast = getattr(args, "fast", None)
    injector = BayesianFaultInjector(model, features, labels, spec=spec, seed=args.seed, fast=fast)
    recipe = InjectorRecipe.from_model(
        model, features, labels, spec=spec, seed=args.seed,
        model_builder=functools.partial(build_workbench_model, args.workbench),
        fast=fast,
    )
    return injector, recipe


def _injector_from_args(args) -> BayesianFaultInjector:
    injector, _ = _campaign_setup(args)
    return injector


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("checkpoint", help="golden-weights .npz written by `repro train`")
    parser.add_argument("--workbench", required=True, choices=sorted(WORKBENCHES))
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--train-size", type=int, default=800, help="dataset regeneration size")
    parser.add_argument("--eval-size", type=int, default=200, help="evaluation batch size")
    parser.add_argument("--include-biases", action="store_true", default=True)


def _add_durability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="record completed campaigns to this crash-safe journal (JSONL)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from an existing --journal, skipping completed campaigns "
             "(bit-identical to an uninterrupted run)",
    )


def _add_resilience(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject deterministic infrastructure faults: comma-separated "
             "site=rate[:count] rules, e.g. 'worker.sigkill=0.2,journal.torn_tail=0.3:1'. "
             "A chaos run that completes is bit-identical to a clean one",
    )
    group.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed for the chaos decision hash (default: 0)",
    )
    group.add_argument(
        "--on-failure", choices=("abort", "degrade"), default="abort",
        help="'abort' (default) raises on a task that exhausts its attempts; "
             "'degrade' quarantines it and completes the rest, with explicit "
             "completed/failed accounting in the output",
    )
    group.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="tries per task (first run + retries) before giving up (default: 3)",
    )
    group.add_argument(
        "--backoff", type=float, default=0.0, metavar="SECONDS",
        help="base retry backoff; attempt n waits backoff * 2^(n-1) scaled by "
             "deterministic jitter (default: 0 = retry immediately)",
    )


def _chaos_plan(args) -> ChaosPlan | None:
    """The --chaos plan, parsed and validated (SystemExit on bad syntax)."""
    spec = getattr(args, "chaos", None)
    if not spec:
        return None
    try:
        return ChaosPlan.parse(spec, seed=getattr(args, "chaos_seed", 0))
    except ChaosError as exc:
        raise SystemExit(f"--chaos: {exc}") from exc


def _resilient_executor(recipe, args, journal) -> ParallelCampaignExecutor:
    """Build the campaign executor honouring the resilience flags."""
    if getattr(args, "max_attempts", 3) < 1:
        raise SystemExit(f"--max-attempts must be >= 1, got {args.max_attempts}")
    if getattr(args, "backoff", 0.0) < 0:
        raise SystemExit(f"--backoff must be non-negative, got {args.backoff}")
    return ParallelCampaignExecutor(
        recipe,
        workers=args.workers,
        journal=journal,
        max_attempts=getattr(args, "max_attempts", 3),
        on_failure=getattr(args, "on_failure", "abort"),
        backoff_s=getattr(args, "backoff", 0.0),
        chaos=_chaos_plan(args),
    )


def _needs_executor(args) -> bool:
    """Whether the resilience flags demand the executor path at workers=1."""
    return (
        getattr(args, "chaos", None) is not None
        or getattr(args, "on_failure", "abort") != "abort"
    )


def _add_fast(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fast", action=argparse.BooleanOptionalAction, default=None,
        help="segment engine for parameter-surface campaigns (batched "
             "forwards from the cached golden prefix; delta-forward lockstep "
             "chains for mcmc/tempered/tempering); bit-identical to the "
             "standard path. Default: use it when supported; --fast requires "
             "it (error if unavailable), --no-fast forces the standard path",
    )


def _validate_workers(args) -> None:
    if getattr(args, "workers", 1) < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")


def _add_observability(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome-trace JSON of the run (open in Perfetto or chrome://tracing)",
    )
    group.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the campaign metrics digest (counters/gauges/histograms) as JSON",
    )
    group.add_argument(
        "--progress", nargs="?", const="-", default=None, metavar="PATH",
        help="stream live progress events (MCMC mixing, sweep points, worker heartbeats); "
             "to stderr by default, or as JSONL to PATH",
    )
    group.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="PATH",
        help="profile the run (per-op/per-layer/per-phase); prints the hot-spot table, "
             "and writes a speedscope-loadable collapsed-stack file to PATH if given",
    )
    group.add_argument(
        "--serve", default=None, metavar="[HOST:]PORT",
        help="serve live telemetry over HTTP while the command runs — /status (JSON), "
             "/metrics (OpenMetrics), /events (SSE), /healthz — watchable with "
             "`repro top http://HOST:PORT`. Implies detailed metrics; port 0 picks a "
             "free port. Strictly passive: results stay bit-identical",
    )
    group.add_argument(
        "--flight-recorder", nargs="?", const=".", default=None, metavar="DIR",
        help="keep a bounded ring of recent events in memory and dump a postmortem "
             "bundle into DIR (default: current directory) when the campaign aborts "
             "or degrades, or on SIGUSR1",
    )
    group.add_argument(
        "--target-halfwidth", type=float, default=None, metavar="W",
        help="arm the advisory stopping monitor: track per-stratum posterior credible "
             "intervals and report the first task at which each stratum's CI half-width "
             "dropped to W. Strictly observational — never stops the run, results stay "
             "bit-identical",
    )
    group.add_argument(
        "--target-mass", type=float, default=0.95, metavar="MASS",
        help="credible mass for the stopping monitor's intervals (default 0.95)",
    )
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise library log verbosity (-v INFO, -vv DEBUG); propagated to workers",
    )


def _session_from_args(args) -> obs.Session:
    """The observability session the command line asks for (not yet entered)."""
    target = None
    halfwidth = getattr(args, "target_halfwidth", None)
    if halfwidth is not None:
        try:
            target = StoppingTarget(halfwidth, getattr(args, "target_mass", DEFAULT_MASS))
        except ValueError as exc:
            raise SystemExit(f"--target-halfwidth: {exc}") from exc
    serve = getattr(args, "serve", None)
    endpoint = status = None
    if serve is not None:
        from repro.obs.server import parse_endpoint

        try:
            endpoint = parse_endpoint(serve)
        except ValueError as exc:
            raise SystemExit(f"--serve: {exc}") from exc
    if serve is not None or target is not None:
        # live posterior telemetry: always on with a server (it backs
        # /estimates), and with a stopping target even headless
        from repro.obs.server import StatusTracker

        status = StatusTracker(target=target)
    progress = getattr(args, "progress", None)
    sinks = []
    if progress is not None:
        sinks.append(obs.StderrSink() if progress == "-" else obs.JsonlSink(progress))
    flight_dir = getattr(args, "flight_recorder", None)
    verbose = getattr(args, "verbose", 0)
    return obs.Session(
        # a served /metrics endpoint needs the registry attached
        metrics=bool(getattr(args, "metrics", None) or serve),
        tracer=bool(getattr(args, "trace", None)),
        profiler=getattr(args, "profile", None) is not None,
        sinks=sinks,
        status=status,
        recorder=FlightRecorder(autodump_dir=flight_dir) if flight_dir is not None else None,
        serve=endpoint,
        labels={"pid": str(os.getpid())},
        signal_dump=True,
        verbosity=("DEBUG" if verbose > 1 else "INFO") if verbose else None,
    )


def _write_artifacts(args, session: obs.Session) -> None:
    """Flush requested artifacts; runs even when the command fails (partial data helps).

    Artifact writes are best-effort: a full disk at shutdown must not mask
    the command's own exit status, so each failure is reported and skipped.
    """
    def _write(label: str, path: str, write: Callable[[], None], hint: str = "") -> None:
        try:
            write()
        except OSError as exc:
            print(f"warning: could not write {label} to {path}: {exc}", file=sys.stderr)
        else:
            print(f"{label} written to {path}{hint}", file=sys.stderr)

    trace_path = getattr(args, "trace", None)
    if trace_path and session.tracer.enabled:
        _write("trace", trace_path, lambda: session.tracer.save(trace_path),
               hint=" (open in Perfetto)")
    profile_arg = getattr(args, "profile", None)
    profiler = session.profiler
    registry = session.metrics
    if profile_arg is not None and profiler is not None:
        if registry is not None:
            # project profile totals so --metrics and --profile compose
            profiler.publish_to(registry)
        print(profiler.hotspot_table(), file=sys.stderr)
        if profile_arg != "-":
            _write("collapsed stacks", profile_arg,
                   lambda: profiler.save_collapsed(profile_arg),
                   hint=" (open in speedscope)")
    metrics_path = getattr(args, "metrics", None)
    if metrics_path and registry is not None:
        _write("metrics", metrics_path,
               lambda: atomic_write_json(
                   metrics_path, {**obs.artifact_stamp(), **registry.snapshot()}
               ))


def _print_session_reports(session: obs.Session) -> None:
    """The stopping monitor's verdict and any postmortem bundles written."""
    estimator = session.status.estimator if session.status is not None else None
    if estimator is not None and estimator.target is not None and estimator.contributions:
        for line in estimator.report_lines():
            print(line, file=sys.stderr)
    if session.recorder is not None:
        for path in session.recorder.dumps:
            print(f"postmortem bundle written to {path}", file=sys.stderr)


def _print_executor_summary(executor) -> None:
    if executor is not None:
        print(f"executor: {executor.stats.summary()}")


def _validate_journal_path(path: str) -> None:
    """Fail fast on an unusable --journal path, before any campaign work.

    A journal that cannot be created or appended to would otherwise
    surface as a raw ``OSError`` mid-campaign — after minutes of work.
    """
    parent = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(parent):
        raise SystemExit(
            f"--journal: parent directory {parent!r} does not exist; "
            "create it first (the journal file itself is created for you)"
        )
    if not os.access(parent, os.W_OK):
        raise SystemExit(f"--journal: directory {parent!r} is not writable")
    if os.path.exists(path):
        if os.path.isdir(path):
            raise SystemExit(f"--journal: {path!r} is a directory, not a file")
        if not os.access(path, os.W_OK):
            raise SystemExit(
                f"--journal: {path!r} is read-only; journals must be appendable to record progress"
            )


def _open_journal(args, specs) -> "contextlib.AbstractContextManager[CampaignJournal | None]":
    """Open/create the campaign journal requested on the command line.

    Validates the ``--journal`` / ``--resume`` combinations: resuming
    requires both the flag and an existing journal file, while starting a
    fresh run refuses to silently append to a journal that already exists.
    Use it as a context manager: it yields the journal (``None`` without
    ``--journal``) and closes it on the way out.
    """
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH (nothing to resume from)")
    if not args.journal:
        return contextlib.nullcontext()
    _validate_journal_path(args.journal)
    fingerprint = campaign_fingerprint(specs, args.seed)
    try:
        if args.resume:
            if not os.path.exists(args.journal):
                raise SystemExit(
                    f"--resume: no journal at {args.journal!r}; "
                    "run once without --resume to create it"
                )
            return CampaignJournal.resume(args.journal, fingerprint=fingerprint)
        if os.path.exists(args.journal):
            raise SystemExit(
                f"journal {args.journal!r} already exists; "
                "pass --resume to continue it or pick a fresh path"
            )
        return CampaignJournal(args.journal, fingerprint=fingerprint)
    except JournalError as exc:
        raise SystemExit(str(exc)) from exc


def _print_journal_status(journal, executor=None) -> None:
    """The journal's tally (a closed journal still knows its entries)."""
    if journal is None:
        return
    if journal.hits:
        print(f"journal: {journal.hits} campaign(s) restored, "
              f"{len(journal)} recorded at {journal.path}")
    else:
        print(f"journal: {len(journal)} campaign(s) recorded at {journal.path}")


# ---------------------------------------------------------------------- #
# commands
# ---------------------------------------------------------------------- #


def _cmd_train(args) -> int:
    workbench = _load_workbench(args.workbench)
    model = workbench.build_model()
    train, evaluation = workbench.build_data(args.train_size, args.eval_size)
    loader = DataLoader(train, batch_size=args.batch_size, shuffle=True, rng=1)
    val = DataLoader(evaluation, batch_size=256)
    epochs = args.epochs or workbench.default_epochs
    trainer = Trainer(model, Adam(model.parameters(), lr=workbench.lr))
    result = trainer.fit(loader, epochs=epochs, val_loader=val)
    save_checkpoint(model, args.out, accuracy=result.final_val_accuracy, epochs=epochs)
    print(f"trained {args.workbench}: val accuracy {result.final_val_accuracy:.1%}")
    print(f"golden weights written to {args.out}")
    return 0


def _campaign_spec_from_args(args):
    steps = max(4, args.samples // args.chains)
    fast = getattr(args, "fast", None)
    if args.method == "forward":
        return ForwardSpec(p=args.p, samples=args.samples, chains=args.chains)
    if args.method == "mcmc":
        return McmcSpec(p=args.p, chains=args.chains, steps=steps, fast=fast)
    if args.method == "tempered":
        return TemperedSpec(
            p=args.p, beta=args.beta, chains=args.chains, steps=steps, fast=fast
        )
    if args.method == "tempering":
        return TemperingSpec(p=args.p, chains=args.chains, sweeps=steps, fast=fast)
    return AdaptiveSpec(p=args.p, chains=args.chains, max_steps=args.samples)


def _cmd_campaign(args) -> int:
    _validate_workers(args)
    injector, recipe = _campaign_setup(args)
    print(f"golden error: {injector.golden_error:.2%}")
    spec = _campaign_spec_from_args(args)
    with _open_journal(args, [spec]) as journal:
        executor = None
        if args.workers > 1 or journal is not None or _needs_executor(args):
            # the executor path journals completed tasks even at workers=1
            executor = _resilient_executor(recipe, args, journal)
            campaign = executor.run([spec])[0]
        else:
            campaign = injector.run(spec)
            publish_outcome(0, campaign, spec=spec, target=injector.spec)
    if campaign is None:  # quarantined under --on-failure degrade
        failure = executor.stats.failed_tasks[0] if executor.stats.failed_tasks else None
        reason = failure.reason if failure else "task failed"
        print(f"campaign FAILED ({reason}); no result (ran with --on-failure degrade)")
        _print_journal_status(journal, executor)
        _print_executor_summary(executor)
        return 1
    if isinstance(campaign, tuple):  # tempered: (result, weighted error)
        campaign, weighted = campaign
        print(f"importance-weighted prior error: {weighted:.2%}")
    print(campaign)
    print(format_table([campaign.summary_row()]))
    if campaign.completeness is not None:
        print(campaign.completeness)
    _print_journal_status(journal, executor)
    _print_executor_summary(executor)
    return 0


def _cmd_sweep(args) -> int:
    _validate_workers(args)
    injector, recipe = _campaign_setup(args)
    p_values = tuple(np.logspace(np.log10(args.p_min), np.log10(args.p_max), args.points))
    base_spec = ForwardSpec(p=float(p_values[0]), samples=args.samples, chains=args.chains)
    with _open_journal(args, [base_spec.with_p(float(p)) for p in p_values]) as journal:
        executor = None
        if args.workers > 1 or _needs_executor(args):
            executor = _resilient_executor(recipe, args, journal)
        sweep = ProbabilitySweep(
            injector, p_values=p_values, spec=base_spec, executor=executor, journal=journal
        ).run()
    _print_journal_status(journal, executor)
    _print_executor_summary(executor)
    if sweep.degraded:
        accounting = sweep.accounting()
        print(f"DEGRADED result: {accounting['completed']}/{accounting['points']} "
              f"points completed; failed p = "
              + ", ".join(f"{entry['p']:.3g} ({entry['cause']})"
                          for entry in accounting["failed_points"]))
    if not sweep.points:
        print("no sweep points completed; nothing to report")
        return 1
    print(format_table(sweep.table()))
    print()
    print(
        line_plot(
            sweep.probabilities(), 100 * sweep.errors(), log_x=True,
            title="classification error (%) vs flip probability",
            x_label="p", y_label="% error", reference=100 * sweep.golden_error,
        )
    )
    fit = sweep.fit_regimes(truncate_saturation=True)
    print(f"\ntwo regimes: {fit.has_two_regimes}; knee at p = {fit.knee_p:.2e}")
    return 0


def _cmd_layerwise(args) -> int:
    _validate_workers(args)
    workbench = _load_workbench(args.workbench)
    model = workbench.build_model()
    load_checkpoint(model, args.checkpoint)
    _, evaluation = workbench.build_data(args.train_size, args.eval_size)
    features, labels = evaluation.arrays()
    spec = ForwardSpec(p=args.p, samples=args.samples, chains=1)
    with _open_journal(args, [spec]) as journal:
        executor = None
        if args.workers > 1 or _needs_executor(args):
            executor = _resilient_executor(None, args, journal)
        campaign = LayerwiseCampaign(
            model, features[: args.eval_size], labels[: args.eval_size],
            p=args.p, samples=args.samples, chains=1, seed=args.seed,
            executor=executor, journal=journal,
            model_builder=functools.partial(build_workbench_model, args.workbench),
            fast=getattr(args, "fast", None),
        ).run()
    _print_journal_status(journal, executor)
    _print_executor_summary(executor)
    if campaign.degraded:
        accounting = campaign.accounting()
        print(f"DEGRADED result: {accounting['completed']}/{accounting['layers']} "
              f"layers completed; failed: "
              + ", ".join(f"{entry['layer']} ({entry['cause']})"
                          for entry in accounting["failed_layers"]))
    if not campaign.results:
        print("no layer campaigns completed; nothing to report")
        return 1
    print(format_table(campaign.table(), columns=["depth", "layer", "error_pct", "parameters"]))
    stats = campaign.depth_correlation()
    print(f"\ndepth vs error: Spearman rho = {stats['spearman_rho']:+.3f} (p = {stats['spearman_p']:.3f})")
    return 0


def _cmd_assess(args) -> int:
    from repro.core import assess_model

    workbench = _load_workbench(args.workbench)
    model = workbench.build_model()
    load_checkpoint(model, args.checkpoint)
    _, evaluation = workbench.build_data(args.train_size, args.eval_size)
    features, labels = evaluation.arrays()
    assessment = assess_model(
        model,
        features[: args.eval_size],
        labels[: args.eval_size],
        seed=args.seed,
        samples_per_point=args.samples,
    )
    report = assessment.to_markdown()
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"\nreport written to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import run_groups, suite_names
    from repro.bench.runner import bench_path

    if args.list:
        for name in suite_names():
            print(name)
        return 0
    if args.group:
        unknown = sorted(set(args.group) - set(suite_names()))
        if unknown:
            raise SystemExit(f"unknown bench group(s) {unknown}; choose from {suite_names()}")
    if args.check and args.filter:
        raise SystemExit("--check and --filter are mutually exclusive "
                         "(a partial run cannot be gated against a full baseline)")
    try:
        _, reports = run_groups(
            args.group or None,
            quick=args.quick,
            seed=args.seed,
            cache_dir=args.artifacts,
            out_dir=args.out_dir,
            case_filter=args.filter,
            check=args.check,
            baseline_dir=args.baseline_dir,
            tolerance=args.tolerance,
        )
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from exc
    if args.check:
        failures = [report for report in reports if not report.passed]
        if failures:
            names = ", ".join(report.group for report in failures)
            print(f"bench gate FAILED for: {names}", file=sys.stderr)
            return 1
        print("bench gate passed")
    else:
        print(f"baselines live at {bench_path('<group>', args.out_dir)}")
    return 0


def _cmd_boundary(args) -> int:
    workbench = _load_workbench(args.workbench)
    if workbench.boundary_window is None:
        raise SystemExit(f"workbench {workbench.name!r} has no 2-D input window for boundary analysis")
    model = workbench.build_model()
    load_checkpoint(model, args.checkpoint)
    analysis = DecisionBoundaryAnalysis(
        model, bounds=workbench.boundary_window, resolution=args.resolution,
        fault_model=BernoulliBitFlipModel(args.p), seed=args.seed,
    )
    boundary_map = analysis.run(samples=args.samples)
    print(heatmap(boundary_map.log_flip_probability(), title="log10 P(flip)", legend="log10"))
    stats = boundary_map.distance_correlation()
    print(f"\nSpearman(distance, flip probability) = {stats['spearman_rho']:+.3f} "
          f"(p = {stats['spearman_p']:.2e})")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import run_top

    if args.interval <= 0:
        raise SystemExit(f"top: --interval must be positive, got {args.interval}")
    if not args.source.startswith(("http://", "https://")) and not os.path.exists(args.source):
        raise SystemExit(
            f"top: no such file {args.source!r} "
            "(pass a --serve status URL or a --progress JSONL path)"
        )
    return run_top(
        args.source,
        interval_s=args.interval,
        frames=args.frames,
        clear=not args.no_clear,
    )


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BDLFI: Bayesian fault-injection campaigns from the command line",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="train a golden network")
    train.add_argument("workbench", choices=sorted(WORKBENCHES))
    train.add_argument("--out", required=True, help="checkpoint path (.npz)")
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--train-size", type=int, default=800)
    train.add_argument("--eval-size", type=int, default=200)
    train.set_defaults(handler=_cmd_train)

    campaign = subparsers.add_parser("campaign", help="one fault-injection campaign")
    _add_common(campaign)
    campaign.add_argument("--p", type=float, default=1e-3, help="bit-flip probability")
    campaign.add_argument("--samples", type=int, default=200)
    campaign.add_argument("--chains", type=int, default=2)
    campaign.add_argument(
        "--method",
        choices=("forward", "mcmc", "tempered", "adaptive", "tempering"),
        default="forward",
    )
    campaign.add_argument(
        "--beta", type=float, default=8.0,
        help="inverse temperature for --method tempered (failure-biased walk, "
             "importance-reweighted back to the prior)",
    )
    campaign.add_argument(
        "--workers", type=int, default=1, help="worker processes for campaign execution"
    )
    _add_fast(campaign)
    _add_durability(campaign)
    _add_resilience(campaign)
    _add_observability(campaign)
    campaign.set_defaults(handler=_cmd_campaign)

    sweep = subparsers.add_parser("sweep", help="error vs flip-probability sweep (Figs. 2/4)")
    _add_common(sweep)
    sweep.add_argument("--p-min", type=float, default=1e-5)
    sweep.add_argument("--p-max", type=float, default=1e-1)
    sweep.add_argument("--points", type=int, default=9)
    sweep.add_argument("--samples", type=int, default=100)
    sweep.add_argument("--chains", type=int, default=2)
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; one campaign per sweep point fans out over the pool",
    )
    _add_fast(sweep)
    _add_durability(sweep)
    _add_resilience(sweep)
    _add_observability(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    layerwise = subparsers.add_parser("layerwise", help="per-layer campaign (Fig. 3)")
    _add_common(layerwise)
    layerwise.add_argument("--p", type=float, default=1e-3)
    layerwise.add_argument("--samples", type=int, default=50)
    layerwise.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; one campaign per layer fans out over the pool",
    )
    _add_fast(layerwise)
    _add_durability(layerwise)
    _add_resilience(layerwise)
    _add_observability(layerwise)
    layerwise.set_defaults(handler=_cmd_layerwise)

    assess = subparsers.add_parser("assess", help="full resilience assessment report")
    _add_common(assess)
    assess.add_argument("--samples", type=int, default=100, help="campaign draws per sweep point")
    assess.add_argument("--out", default=None, help="also write the markdown report here")
    _add_observability(assess)
    assess.set_defaults(handler=_cmd_assess)

    bench = subparsers.add_parser(
        "bench", help="run the reproducible benchmark suites (BENCH_*.json baselines)"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="quick tier: smaller grids/budgets, same case names (what CI gates on)",
    )
    bench.add_argument(
        "--group", action="append", default=None, metavar="NAME",
        help="suite to run (repeatable; default: all; see --list)",
    )
    bench.add_argument("--list", action="store_true", help="list available suites and exit")
    bench.add_argument(
        "--filter", default=None, metavar="PATTERN",
        help="fnmatch pattern over case names; filtered runs print timings "
             "but never write records or gate",
    )
    bench.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for BENCH_<group>.json records (default: current directory)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="after running, gate against committed baselines; non-zero exit on regression",
    )
    bench.add_argument(
        "--baseline-dir", default=None, metavar="DIR",
        help="where committed baselines live (default: --out-dir)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=2.0,
        help="max allowed current/baseline median ratio for --check (default: 2.0)",
    )
    bench.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="golden-checkpoint cache directory (default: benchmarks/_artifacts)",
    )
    bench.add_argument("--seed", type=int, default=2019)
    bench.set_defaults(handler=_cmd_bench)

    top = subparsers.add_parser(
        "top", help="live terminal dashboard for a running campaign"
    )
    top.add_argument(
        "source",
        help="a --serve status URL (http://HOST:PORT) or a --progress JSONL file",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default: 1.0)",
    )
    top.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (logs, dumb terminals)",
    )
    top.set_defaults(handler=_cmd_top)

    boundary = subparsers.add_parser("boundary", help="decision-boundary map (Fig. 1 (3))")
    _add_common(boundary)
    boundary.add_argument("--p", type=float, default=1e-3)
    boundary.add_argument("--samples", type=int, default=100)
    boundary.add_argument("--resolution", type=int, default=40)
    boundary.set_defaults(handler=_cmd_boundary)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    session = _session_from_args(args)
    try:
        session.__enter__()
    except OSError as exc:
        raise SystemExit(f"--serve: cannot bind {args.serve!r}: {exc}") from exc
    try:
        if session.server is not None:
            print(f"status server: {session.server.url} "
                  "(endpoints: /status /metrics /estimates /events /healthz)", file=sys.stderr)
        return args.handler(args)
    finally:
        try:
            _write_artifacts(args, session)
        finally:
            session.__exit__(None, None, None)
        _print_session_reports(session)


if __name__ == "__main__":
    sys.exit(main())
