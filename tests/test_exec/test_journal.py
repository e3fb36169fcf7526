"""Campaign journal: durability, fingerprinting, and bit-identical resume."""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.injector import BayesianFaultInjector
from repro.core.layerwise import LayerwiseCampaign
from repro.core.sweep import ProbabilitySweep
from repro.data import two_moons
from repro.exec import (
    CampaignJournal,
    ForwardSpec,
    InjectorRecipe,
    JournalError,
    JournalMismatchError,
    McmcSpec,
    ParallelCampaignExecutor,
    campaign_fingerprint,
    task_key,
)
from repro.exec.journal import decode_outcome, encode_outcome, spec_fingerprint
from repro.nn import paper_mlp

P_GRID = (1e-4, 1e-3, 1e-2, 5e-2)
SPEC = ForwardSpec(p=1e-4, samples=16, chains=2)
SEED = 11


@pytest.fixture(scope="module")
def setup():
    """Deterministic (model, eval batch): untrained but fully seeded."""
    model = paper_mlp(rng=0).eval()
    eval_x, eval_y = two_moons(60, noise=0.12, rng=1)
    return model, eval_x, eval_y


@pytest.fixture(scope="module")
def baseline(setup):
    """The uninterrupted sweep every resume scenario must reproduce."""
    model, eval_x, eval_y = setup
    injector = BayesianFaultInjector(model, eval_x, eval_y, seed=SEED)
    return ProbabilitySweep(injector, p_values=P_GRID, spec=SPEC).run()


def strip_durations(record: dict) -> dict:
    """Result record minus wall-clock fields (identical math, different clock)."""
    record = dict(record)
    record.pop("duration_s", None)
    # the metrics digest carries duration gauges/histograms alongside its
    # (deterministic) counters; counter parity has its own tests in test_obs
    record.pop("metrics", None)
    summary = dict(record.get("summary", {}))
    summary.pop("duration_s", None)
    summary.pop("evals_per_s", None)
    record["summary"] = summary
    return record


def assert_bit_identical(sweep_a, sweep_b):
    for pa, pb in zip(sweep_a.points, sweep_b.points):
        assert np.array_equal(pa.campaign.posterior.samples, pb.campaign.posterior.samples)
        assert strip_durations(pa.campaign.to_dict()) == strip_durations(pb.campaign.to_dict())


class TestJournalFile:
    def test_record_get_round_trip(self, tmp_path, baseline):
        journal = CampaignJournal(str(tmp_path / "j.jsonl"))
        campaign = baseline.points[0].campaign
        journal.record("k1", campaign)
        restored = journal.get("k1")
        assert np.array_equal(restored.posterior.samples, campaign.posterior.samples)
        assert restored.to_dict() == campaign.to_dict()
        assert "k1" in journal and len(journal) == 1
        assert journal.get("missing") is None

    def test_record_is_idempotent_and_durable(self, tmp_path, baseline):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        campaign = baseline.points[0].campaign
        journal.record("k1", campaign)
        journal.record("k1", campaign)  # duplicate: no second line
        journal.close()
        lines = open(path).read().splitlines()
        assert len(lines) == 2  # header + one entry
        reopened = CampaignJournal(path)
        assert len(reopened) == 1

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            CampaignJournal.resume(str(tmp_path / "absent.jsonl"))

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CampaignJournal(path, fingerprint="aaaa" * 16).close()
        with pytest.raises(JournalMismatchError, match="different campaign"):
            CampaignJournal.resume(path, fingerprint="bbbb" * 16)
        # same fingerprint reopens fine
        CampaignJournal.resume(path, fingerprint="aaaa" * 16).close()

    def test_non_journal_file_rejected(self, tmp_path):
        path = str(tmp_path / "noise.jsonl")
        with open(path, "w") as handle:
            handle.write('{"something": "else"}\n')
        with pytest.raises(JournalError, match="not a campaign journal"):
            CampaignJournal(path)

    def test_newer_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.jsonl")
        with open(path, "w") as handle:
            handle.write('{"journal": "bdlfi-campaign-journal", "version": 99}\n')
        with pytest.raises(JournalError, match="newer"):
            CampaignJournal(path)

    def test_torn_tail_dropped(self, tmp_path, baseline):
        """A crash mid-append leaves a torn final line; replay drops it."""
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.record("k1", baseline.points[0].campaign)
        journal.record("k2", baseline.points[1].campaign)
        journal.close()
        text = open(path).read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) - 40])  # tear the last record
        reopened = CampaignJournal(path)
        assert len(reopened) == 1
        assert "k1" in reopened and "k2" not in reopened
        assert reopened.dropped_lines >= 1

    def test_corrupt_entry_checksum_skipped(self, tmp_path, baseline):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.record("k1", baseline.points[0].campaign)
        journal.close()
        lines = open(path).read().splitlines()
        entry = json.loads(lines[1])
        entry["outcome"]["result"]["seed"] = 999  # flip content, keep sha
        with open(path, "w") as handle:
            handle.write(lines[0] + "\n" + json.dumps(entry) + "\n")
        reopened = CampaignJournal(path)
        assert "k1" not in reopened
        assert reopened.dropped_lines == 1


class TestSelfHealingJournal:
    """CRC, quarantine sidecar, atomic heal, and append rollback."""

    def test_corrupt_middle_record_does_not_drop_later_records(self, tmp_path, baseline):
        """One bad line costs exactly one task — no truncation amplification."""
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        for index in range(3):
            journal.record(f"k{index}", baseline.points[index].campaign)
        journal.close()
        lines = open(path).read().splitlines()
        lines[2] = lines[2][:40] + "####" + lines[2][44:]  # corrupt k1 mid-file
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        reopened = CampaignJournal(path)
        assert "k0" in reopened and "k2" in reopened  # k2 survives the bad k1
        assert "k1" not in reopened
        assert reopened.quarantined and reopened.dropped_lines == 1

    def test_quarantine_sidecar_preserves_rejected_lines(self, tmp_path, baseline):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.record("k1", baseline.points[0].campaign)
        journal.close()
        text = open(path).read()
        with open(path, "w") as handle:
            handle.write(text[:-30])  # tear the only record
        reopened = CampaignJournal(path)
        assert reopened.quarantined == [(2, "torn tail")]
        sidecar = open(reopened.quarantine_path).read().splitlines()
        entry = json.loads(sidecar[0])
        assert entry["line"] == 2 and entry["reason"] == "torn tail"
        assert entry["raw"]  # the damaged bytes are kept for forensics

    def test_replay_heals_the_file_in_place(self, tmp_path, baseline):
        """After one recovery, the journal is clean — damage never compounds."""
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.record("k1", baseline.points[0].campaign)
        journal.record("k2", baseline.points[1].campaign)
        journal.close()
        text = open(path).read()
        with open(path, "w") as handle:
            handle.write(text[:-25])
        healed = CampaignJournal(path)
        assert healed.dropped_lines == 1
        # appending after the heal lands on a clean boundary
        healed.record("k2", baseline.points[1].campaign)
        healed.close()
        final = CampaignJournal(path)
        assert final.dropped_lines == 0 and "k1" in final and "k2" in final

    def test_crc_guards_entries(self, tmp_path, baseline):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.record("k1", baseline.points[0].campaign)
        journal.close()
        lines = open(path).read().splitlines()
        entry = json.loads(lines[1])
        assert isinstance(entry["crc"], int)
        entry["crc"] ^= 1  # flip one CRC bit; sha untouched
        with open(path, "w") as handle:
            handle.write(lines[0] + "\n" + json.dumps(entry) + "\n")
        reopened = CampaignJournal(path)
        assert "k1" not in reopened and reopened.quarantined == [(2, "checksum mismatch")]

    def test_legacy_entries_without_crc_still_replay(self, tmp_path, baseline):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.record("k1", baseline.points[0].campaign)
        journal.close()
        lines = open(path).read().splitlines()
        entry = json.loads(lines[1])
        del entry["crc"]
        with open(path, "w") as handle:
            handle.write(lines[0] + "\n" + json.dumps(entry) + "\n")
        reopened = CampaignJournal(path)
        assert "k1" in reopened and reopened.dropped_lines == 0

    def test_failed_append_rolls_back_and_raises(self, tmp_path, baseline):
        from repro.exec import ChaosPlan, chaos_enabled
        from repro.exec.journal import JournalWriteError

        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.record("k1", baseline.points[0].campaign)
        size_before = os.path.getsize(path)
        plan = ChaosPlan.from_rates({"journal.fsync": 1.0}, seed=0)
        with chaos_enabled(plan):
            with pytest.raises(JournalWriteError, match="rolled back"):
                journal.record("k2", baseline.points[1].campaign)
        assert os.path.getsize(path) == size_before  # pre-append state restored
        assert journal.write_errors == 1 and "k2" not in journal
        # with chaos gone the same append succeeds on the clean boundary
        journal.record("k2", baseline.points[1].campaign)
        journal.close()
        reopened = CampaignJournal(path)
        assert "k1" in reopened and "k2" in reopened and reopened.dropped_lines == 0

    def test_chaos_torn_tail_recovers_on_resume(self, tmp_path, baseline):
        from repro.exec import ChaosPlan, chaos_enabled

        path = str(tmp_path / "j.jsonl")
        plan = ChaosPlan.from_rates({"journal.torn_tail": 1.0}, seed=0)
        journal = CampaignJournal(path)
        with chaos_enabled(plan):
            journal.record("k1", baseline.points[0].campaign)  # torn on disk
            journal.record("k2", baseline.points[1].campaign)  # torn on disk too
        # in-session, the in-memory entries are intact (only durability hurt)
        assert "k1" in journal and "k2" in journal
        journal.close()
        reopened = CampaignJournal(path)
        assert reopened.dropped_lines >= 1  # the tears are found and quarantined
        assert len(reopened) + reopened.dropped_lines >= 2  # nothing silently gone


class TestKeysAndFingerprints:
    def test_task_key_distinguishes_rng_coordinates(self):
        base = task_key(SPEC, seed=1)
        assert task_key(SPEC.with_p(2e-4), seed=1) != base
        assert task_key(SPEC, seed=2) != base
        assert task_key(McmcSpec(p=1e-4, chains=2, steps=8), seed=1) != base
        assert task_key(SPEC, seed=1, scope="x" * 16) != base
        assert task_key(SPEC, seed=1) == base

    def test_spec_fingerprint_tracks_content(self):
        assert spec_fingerprint(SPEC) == spec_fingerprint(ForwardSpec(p=1e-4, samples=16, chains=2))
        assert spec_fingerprint(SPEC) != spec_fingerprint(ForwardSpec(p=1e-4, samples=17, chains=2))

    def test_campaign_fingerprint_tracks_grid_and_seed(self):
        specs = [SPEC.with_p(p) for p in P_GRID]
        fp = campaign_fingerprint(specs, SEED)
        assert campaign_fingerprint(specs, SEED) == fp
        assert campaign_fingerprint(specs, SEED + 1) != fp
        assert campaign_fingerprint(specs[:-1], SEED) != fp

    def test_outcome_codec_handles_tempered_pairs(self, baseline):
        campaign = baseline.points[0].campaign
        pair = (campaign, 0.125)
        payload = encode_outcome(pair)
        assert payload["type"] == "tempered_pair"
        restored_campaign, weighted = decode_outcome(json.loads(json.dumps(payload)))
        assert weighted == 0.125
        assert restored_campaign.to_dict() == campaign.to_dict()

    def test_unjournalable_outcome_rejected(self):
        with pytest.raises(TypeError):
            encode_outcome(object())


class TestKillAndResume:
    """Truncate a journal mid-campaign, resume, and demand bit-identity."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_truncated_journal_resumes_bit_identically(self, tmp_path, setup, baseline, workers):
        model, eval_x, eval_y = setup
        path = str(tmp_path / f"sweep-{workers}.jsonl")
        specs = [SPEC.with_p(float(p)) for p in P_GRID]
        fingerprint = campaign_fingerprint(specs, SEED)

        # full journaled run, then truncate to header + 2 entries ("crash")
        injector = BayesianFaultInjector(model, eval_x, eval_y, seed=SEED)
        journal = CampaignJournal(path, fingerprint=fingerprint)
        ProbabilitySweep(
            injector, p_values=P_GRID, spec=SPEC,
            executor=ParallelCampaignExecutor(workers=1, journal=journal),
        ).run()
        journal.close()
        lines = open(path).read().splitlines()
        assert len(lines) == 1 + len(P_GRID)
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:3]) + "\n")

        # resume with the requested worker count
        resumed_journal = CampaignJournal.resume(path, fingerprint=fingerprint)
        # at workers=1 the sweep builds its recipe from its own injector
        recipe = InjectorRecipe.from_model(model, eval_x, eval_y, seed=SEED) if workers > 1 else None
        executor = ParallelCampaignExecutor(recipe, workers=workers, journal=resumed_journal)
        resumed = ProbabilitySweep(
            BayesianFaultInjector(model, eval_x, eval_y, seed=SEED),
            p_values=P_GRID, spec=SPEC, executor=executor,
        ).run()
        assert executor.stats.journal_hits == 2
        assert len(resumed_journal) == len(P_GRID)
        assert_bit_identical(baseline, resumed)

    def test_layerwise_resume_bit_identical(self, tmp_path, setup):
        model, eval_x, eval_y = setup
        kwargs = dict(p=5e-3, samples=12, chains=1, seed=SEED)
        uninterrupted = LayerwiseCampaign(model, eval_x, eval_y, **kwargs).run()

        path = str(tmp_path / "layers.jsonl")
        journal = CampaignJournal(path)
        LayerwiseCampaign(
            model, eval_x, eval_y,
            executor=ParallelCampaignExecutor(workers=1, journal=journal), **kwargs,
        ).run()
        journal.close()
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:  # keep the first layer only
            handle.write("\n".join(lines[:2]) + "\n")

        resumed = LayerwiseCampaign(
            model, eval_x, eval_y,
            executor=ParallelCampaignExecutor(workers=1, journal=CampaignJournal.resume(path)),
            **kwargs,
        ).run()
        for a, b in zip(uninterrupted.results, resumed.results):
            assert a.layer == b.layer
            assert np.array_equal(a.campaign.posterior.samples, b.campaign.posterior.samples)
            assert strip_durations(a.campaign.to_dict()) == strip_durations(b.campaign.to_dict())

    def test_sequential_journal_resumes_under_executor(self, tmp_path, setup, baseline):
        """Task keys are pool-width independent: a journal written at
        workers=1 must satisfy a workers=2 executor, and vice versa."""
        model, eval_x, eval_y = setup
        path = str(tmp_path / "cross.jsonl")
        injector = BayesianFaultInjector(model, eval_x, eval_y, seed=SEED)
        journal = CampaignJournal(path)
        ProbabilitySweep(
            injector, p_values=P_GRID, spec=SPEC,
            executor=ParallelCampaignExecutor(workers=1, journal=journal),
        ).run()
        journal.close()

        recipe = InjectorRecipe.from_model(model, eval_x, eval_y, seed=SEED)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, journal=CampaignJournal.resume(path)
        )
        resumed = ProbabilitySweep(
            injector, p_values=P_GRID, spec=SPEC, executor=executor
        ).run()
        assert executor.stats.journal_hits == len(P_GRID)
        assert_bit_identical(baseline, resumed)


_CHILD_SCRIPT = """
import sys, time
from repro.core.injector import BayesianFaultInjector
from repro.core.sweep import ProbabilitySweep
from repro.data import two_moons
from repro.exec import CampaignJournal, ForwardSpec, ParallelCampaignExecutor
from repro.nn import paper_mlp

journal_path = sys.argv[1]

# Slow each campaign down so the parent can SIGKILL mid-sweep.
original_run = BayesianFaultInjector.run
def slow_run(self, spec):
    time.sleep(0.2)
    return original_run(self, spec)
BayesianFaultInjector.run = slow_run

model = paper_mlp(rng=0).eval()
eval_x, eval_y = two_moons(60, noise=0.12, rng=1)
injector = BayesianFaultInjector(model, eval_x, eval_y, seed={seed})
sweep = ProbabilitySweep(
    injector, p_values={p_grid!r},
    spec=ForwardSpec(p=1e-4, samples=16, chains=2),
    executor=ParallelCampaignExecutor(workers=1, journal=CampaignJournal(journal_path)),
)
print("child ready", flush=True)
sweep.run()
print("child finished", flush=True)
"""


class TestSigkillResume:
    def test_sigkilled_sweep_resumes_bit_identically(self, tmp_path, setup, baseline):
        """Hard-kill (SIGKILL) a journaled sweep mid-campaign; the journal
        must replay cleanly and the resumed sweep must match an
        uninterrupted run bit-for-bit."""
        model, eval_x, eval_y = setup
        path = str(tmp_path / "killed.jsonl")
        script = _CHILD_SCRIPT.format(seed=SEED, p_grid=P_GRID)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", script, path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            # wait until at least one campaign is durably journaled, then kill
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if os.path.exists(path) and len(open(path).read().splitlines()) >= 2:
                    break
                if child.poll() is not None:
                    pytest.fail(f"child exited early:\n{child.stdout.read().decode()}")
                time.sleep(0.02)
            else:
                pytest.fail("child never journaled a campaign")
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL

        journal = CampaignJournal.resume(path)
        completed_before_kill = len(journal)
        assert 1 <= completed_before_kill <= len(P_GRID)

        injector = BayesianFaultInjector(model, eval_x, eval_y, seed=SEED)
        resumed = ProbabilitySweep(
            injector, p_values=P_GRID, spec=SPEC,
            executor=ParallelCampaignExecutor(workers=1, journal=journal),
        ).run()
        assert len(journal) == len(P_GRID)
        assert_bit_identical(baseline, resumed)

    def test_sigkilled_sweep_with_torn_record_resumes_bit_identically(
        self, tmp_path, setup, baseline
    ):
        """SIGKILL mid-sweep *and* tear the journal mid-record: the torn
        tail must be quarantined (not trusted, not fatal) and the resumed
        sweep must still match an uninterrupted run bit-for-bit."""
        model, eval_x, eval_y = setup
        path = str(tmp_path / "killed-torn.jsonl")
        script = _CHILD_SCRIPT.format(seed=SEED, p_grid=P_GRID)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", script, path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if os.path.exists(path) and len(open(path).read().splitlines()) >= 2:
                    break
                if child.poll() is not None:
                    pytest.fail(f"child exited early:\n{child.stdout.read().decode()}")
                time.sleep(0.02)
            else:
                pytest.fail("child never journaled a campaign")
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL

        # simulate the torn write the kernel can leave behind: the last
        # durable record loses its tail mid-line
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 40)

        journal = CampaignJournal.resume(path)
        assert journal.quarantined, "the torn record must be quarantined, not trusted"
        assert journal.dropped_lines == 1
        assert os.path.exists(journal.quarantine_path)

        injector = BayesianFaultInjector(model, eval_x, eval_y, seed=SEED)
        resumed = ProbabilitySweep(
            injector, p_values=P_GRID, spec=SPEC,
            executor=ParallelCampaignExecutor(workers=1, journal=journal),
        ).run()
        assert len(journal) == len(P_GRID)
        assert_bit_identical(baseline, resumed)
