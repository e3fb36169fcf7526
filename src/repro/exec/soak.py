"""Randomized kill-and-recover soak harness for the chaos-hardened stack.

One soak (:func:`run_soak`) drives the full recovery story end to end:

1. run a clean, chaos-free reference campaign set;
2. run the same task set under an aggressive, seeded :class:`ChaosPlan`
   (worker SIGKILL, dropped result messages, torn/corrupted journal
   tails, failing fsyncs), journaled, with ``on_failure="degrade"``;
3. repeatedly "restart": reopen the journal from disk (exercising
   replay, CRC verification, tail quarantine, and self-healing) and
   resume the campaign, easing chaos off across rounds the way a real
   incident subsides;
4. assert the contract from the paper-reproduction standpoint:

   * **completion ⇒ bit-identity** — if every task eventually completes,
     the recovered results match the clean run exactly (wall-clock
     fields aside);
   * **degradation ⇒ exact accounting** — if tasks remain failed, the
     executor's completeness accounting sums *exactly* to the task
     space: every task is either delivered or named in
     ``failed_tasks``; silent loss is an assertion failure.

The harness is fully deterministic per seed — both the campaigns
(named RNG substreams) and the chaos (hash-based decisions) — so a CI
failure reproduces locally with the same ``--seed``.

CLI (the CI ``chaos-smoke`` job)::

    PYTHONPATH=src python -m repro.exec.soak --seeds 3 --artifacts out/

Exit code 0 iff every seed upholds the contract.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np

import repro.obs as obs
from repro.exec import chaos as chaos_mod
from repro.exec.executor import CampaignTask, InjectorRecipe, ParallelCampaignExecutor
from repro.exec.journal import CampaignJournal
from repro.exec.specs import ForwardSpec
from repro.obs.flight import FlightRecorder

__all__ = ["SoakFailure", "run_soak", "main"]

#: probability grid for the soak task set (small but multi-point, so the
#: journal sees several independent records per run)
P_GRID = (1e-4, 1e-3, 1e-2, 5e-2)
#: per-campaign budget: big enough to be real work, small enough for CI
SAMPLES = 16
CHAINS = 2
#: restart cycles before declaring the run permanently degraded
MAX_ROUNDS = 4


class SoakFailure(AssertionError):
    """The soak contract was violated (non-identity or accounting hole).

    ``postmortem`` is the path of the flight-recorder bundle dumped at
    the moment of violation (``None`` if the dump itself failed) — the
    actionable artifact CI uploads alongside the failure message.
    """

    def __init__(self, message: str, postmortem: str | None = None) -> None:
        super().__init__(message)
        self.postmortem = postmortem


def _recipe(seed: int) -> InjectorRecipe:
    from repro.data import two_moons
    from repro.nn import paper_mlp

    model = paper_mlp(rng=0).eval()
    eval_x, eval_y = two_moons(60, noise=0.12, rng=1)
    return InjectorRecipe.from_model(model, eval_x, eval_y, seed=seed)


def _tasks(recipe: InjectorRecipe) -> list[CampaignTask]:
    return [
        CampaignTask(ForwardSpec(p=p, samples=SAMPLES, chains=CHAINS), recipe)
        for p in P_GRID
    ]


def _canon(outcome) -> dict:
    """Result record minus wall-clock fields (identical math, different clock)."""
    record = dict(outcome.to_dict())
    record.pop("duration_s", None)
    record.pop("metrics", None)
    summary = dict(record.get("summary", {}))
    summary.pop("duration_s", None)
    summary.pop("evals_per_s", None)
    record["summary"] = summary
    return record


def _chaos_plan(seed: int, round_index: int) -> chaos_mod.ChaosPlan | None:
    """The chaos schedule for one restart round, easing off over rounds.

    Round 0 is the incident (every site armed, bounded fire counts so the
    round terminates); later rounds halve the pressure; the final round is
    chaos-free, so a task set that *can* complete always does.
    """
    if round_index >= MAX_ROUNDS - 1:
        return None
    scale = 0.5**round_index
    return chaos_mod.ChaosPlan.from_rates(
        {
            "worker.sigkill": chaos_mod.ChaosRule(rate=0.5 * scale, count=3),
            "worker.slow_start": chaos_mod.ChaosRule(rate=0.5 * scale, count=2),
            "pipe.drop": chaos_mod.ChaosRule(rate=0.4 * scale, count=2),
            "pipe.duplicate": chaos_mod.ChaosRule(rate=0.4 * scale, count=2),
            "journal.torn_tail": chaos_mod.ChaosRule(rate=0.5 * scale, count=1),
            "journal.corrupt_tail": chaos_mod.ChaosRule(rate=0.5 * scale, count=1),
            "journal.fsync": chaos_mod.ChaosRule(rate=0.3 * scale, count=1),
        },
        seed=seed + round_index,
        slow_start_s=0.02,
    )


def run_soak(seed: int, workdir: str, workers: int = 2) -> dict:
    """One full kill-and-recover soak; returns a JSON-able report.

    Raises :class:`SoakFailure` on any contract violation.
    """
    recipe = _recipe(seed)
    tasks = _tasks(recipe)

    # --- clean reference: no chaos, no journal, sequential -------------- #
    clean_exec = ParallelCampaignExecutor(workers=1)
    clean = clean_exec.execute(list(tasks))

    # The flight recorder rides along for the chaos rounds so a contract
    # violation ships a postmortem bundle (recent events + chaos plan +
    # metrics), not just an assertion message.
    recorder = FlightRecorder(capacity=1024, autodump_dir=workdir)

    def _violate(message: str) -> None:
        path = recorder.maybe_autodump(f"soak.seed{seed}")
        suffix = f" (postmortem: {path})" if path else ""
        raise SoakFailure(message + suffix, postmortem=path)

    with obs.Session(recorder=recorder):
        return _soak_rounds(seed, workdir, workers, tasks, clean, recorder, _violate)


def _soak_rounds(seed, workdir, workers, tasks, clean, recorder, _violate) -> dict:
    # --- chaos run with restart cycles ---------------------------------- #
    journal_path = os.path.join(workdir, f"soak-{seed}.journal.jsonl")
    rounds = []
    results = [None] * len(tasks)
    stats = None
    for round_index in range(MAX_ROUNDS):
        plan = _chaos_plan(seed, round_index)
        # "restart": a fresh journal object replays the file from disk,
        # verifying checksums, quarantining damage, healing the file
        journal = (
            CampaignJournal.resume(journal_path)
            if os.path.exists(journal_path)
            else CampaignJournal(journal_path)
        )
        executor = ParallelCampaignExecutor(
            workers=workers,
            journal=journal,
            max_attempts=2,
            on_failure="degrade",
            backoff_s=0.001,
        )
        if plan is None:
            results = executor.execute(list(tasks))
            fired = {}
        else:
            # install process-wide ourselves so fire counts survive the run
            with chaos_mod.chaos_enabled(plan) as injector:
                results = executor.execute(list(tasks))
            fired = injector.fired()
        stats = executor.stats
        rounds.append(
            {
                "round": round_index,
                "chaos": None if plan is None else plan.describe(),
                "journal_hits": stats.journal_hits,
                "retries": dict(stats.retries_by_cause),
                "failed": stats.failed,
                "quarantined_lines": len(journal.quarantined),
                "journal_errors": stats.journal_errors,
                "fired": fired,
            }
        )
        if all(result is not None for result in results):
            break

    report = {
        "seed": seed,
        "tasks": len(tasks),
        "rounds": rounds,
        "completed": sum(result is not None for result in results),
        "failed": len(tasks) - sum(result is not None for result in results),
    }

    # --- the contract ---------------------------------------------------- #
    accounting = stats.accounting()
    # exact accounting holds in *every* outcome: completed tasks in this
    # final round plus named failures must tile the task space
    if accounting["completed"] + accounting["failed"] != accounting["tasks"]:
        _violate(
            f"seed {seed}: accounting hole — {accounting['completed']} completed "
            f"+ {accounting['failed']} failed != {accounting['tasks']} tasks"
        )
    named = {failure["index"] for failure in accounting["failed_tasks"]}
    holes = {index for index, result in enumerate(results) if result is None}
    if named != holes:
        _violate(
            f"seed {seed}: silent task loss — result holes {sorted(holes)} vs "
            f"named failures {sorted(named)}"
        )

    if not holes:
        # completion ⇒ bit-identity with the chaos-free reference
        for index, (clean_result, chaos_result) in enumerate(zip(clean, results)):
            if not np.array_equal(
                clean_result.posterior.samples, chaos_result.posterior.samples
            ):
                _violate(
                    f"seed {seed}: task {index} posterior diverged from the clean run"
                )
            if _canon(clean_result) != _canon(chaos_result):
                _violate(
                    f"seed {seed}: task {index} result record diverged from the clean run"
                )
        report["bit_identical"] = True
    else:
        # degraded-but-accounted: still dump a bundle so the failure report
        # carries the event tail that led to each quarantine
        report["bit_identical"] = False
        report["postmortem"] = recorder.maybe_autodump(f"soak.seed{seed}.degraded")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.soak",
        description="kill-and-recover soak for the chaos-hardened campaign stack",
    )
    parser.add_argument("--seeds", type=int, default=3, help="number of soak seeds to run")
    parser.add_argument("--seed-base", type=int, default=2019, help="first seed")
    parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="keep journals/quarantines and write soak-report.json here "
             "(default: a temp dir, deleted on success)",
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    import tempfile

    workdir = args.artifacts or tempfile.mkdtemp(prefix="repro-soak-")
    os.makedirs(workdir, exist_ok=True)
    reports, failures = [], []
    for offset in range(args.seeds):
        seed = args.seed_base + offset
        try:
            report = run_soak(seed, workdir, workers=args.workers)
        except SoakFailure as exc:
            failures.append(str(exc))
            print(f"seed {seed}: FAIL — {exc}", file=sys.stderr)
            continue
        reports.append(report)
        outcome = "bit-identical" if report["bit_identical"] else (
            f"degraded ({report['completed']}/{report['tasks']} completed, exact accounting)"
        )
        print(f"seed {seed}: ok — {outcome} in {len(report['rounds'])} round(s)")

    report_path = os.path.join(workdir, "soak-report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump({"reports": reports, "failures": failures}, handle, indent=2)
    print(f"soak report: {report_path}")
    if failures:
        print(f"{len(failures)} seed(s) FAILED; artifacts kept at {workdir}", file=sys.stderr)
        return 1
    if args.artifacts is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
