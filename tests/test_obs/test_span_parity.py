"""One span, two artifacts: the trace and the profile cover the same regions.

``obs.span`` reads the clock once on entry and once on exit and feeds
both readings to the session's tracer and profiler. So, for a campaign run
under ``Session(tracer=True, profiler=True)``, the trace events rebuilt
into dotted paths (by nesting, per process and thread) are exactly the
profile's phase paths, with one event per counted call and the summed
event durations equal to each phase's cumulative time.
"""

from collections import defaultdict

import pytest

import repro.obs as obs
from repro.exec import CampaignJournal, ForwardSpec, ParallelCampaignExecutor, TemperedSpec

SPECS = (
    ForwardSpec(p=1e-2, samples=24, chains=2),
    TemperedSpec(p=1e-2, beta=5.0, chains=2, steps=12),
)


def event_paths(events: list[dict]) -> dict[str, list[float]]:
    """Each trace event's duration (µs), keyed by its nesting path."""
    threads = defaultdict(list)
    for event in events:
        threads[event["pid"], event["tid"]].append(event)
    paths: dict[str, list[float]] = defaultdict(list)
    for thread in threads.values():
        thread.sort(key=lambda event: (event["ts"], -event["dur"]))
        open_spans: list[tuple[float, str]] = []  # (end µs, path)
        for event in thread:
            while open_spans and event["ts"] >= open_spans[-1][0]:
                open_spans.pop()
            parent = open_spans[-1][1] + "/" if open_spans else ""
            path = parent + event["name"]
            open_spans.append((event["ts"] + event["dur"], path))
            paths[path].append(event["dur"])
    return paths


def assert_parity(session: obs.Session) -> None:
    paths = event_paths(session.tracer.events)
    phases = session.profiler.phases
    assert paths, "the run recorded no spans"
    assert set(paths) == set(phases)
    leaves = {path.rsplit("/", 1)[-1] for path in phases}
    assert leaves == {event["name"] for event in session.tracer.events}
    for path, durations in paths.items():
        assert phases[path].count == len(durations), path
        assert phases[path].cum_s == pytest.approx(sum(durations) / 1e6, abs=1e-6), path


class TestSpanParity:
    def test_sequential_campaigns(self, make_injector):
        with obs.Session(tracer=True, profiler=True) as session:
            injector = make_injector()
            for spec in SPECS:
                injector.run(spec)
        assert_parity(session)
        leaves = {path.rsplit("/", 1)[-1] for path in session.profiler.phases}
        assert {"campaign.forward", "campaign.tempered", "forward.eval", "chain.mcmc"} <= leaves

    def test_two_worker_executor(self, recipe, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        with obs.Session(tracer=True, profiler=True) as session, CampaignJournal(journal_path) as journal:
            ParallelCampaignExecutor(recipe, workers=2, journal=journal).run(list(SPECS))
        assert_parity(session)
        leaves = {path.rsplit("/", 1)[-1] for path in session.profiler.phases}
        assert {"campaign.forward", "campaign.tempered", "journal.record", "journal.fsync"} <= leaves
        assert "journal.record/journal.fsync" in session.profiler.phases
