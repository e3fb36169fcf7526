"""Command-line interface."""

import gc
import os
import signal
import warnings

import numpy as np
import pytest

from repro.cli import WORKBENCHES, build_parser, main


@pytest.fixture(scope="module")
def golden_checkpoint(tmp_path_factory):
    """A quickly trained mlp-moons checkpoint shared by the CLI tests."""
    path = str(tmp_path_factory.mktemp("cli") / "golden.npz")
    code = main(
        ["train", "mlp-moons", "--out", path, "--epochs", "25", "--train-size", "500"]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_args(self):
        args = build_parser().parse_args(["train", "mlp-moons", "--out", "x.npz"])
        assert args.workbench == "mlp-moons"
        assert args.out == "x.npz"

    def test_unknown_workbench_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "vgg", "--out", "x.npz"])

    def test_all_workbenches_buildable(self):
        for name, workbench in WORKBENCHES.items():
            model = workbench.build_model()
            assert model.num_parameters() > 0, name


class TestTrain(object):
    def test_writes_checkpoint(self, golden_checkpoint):
        assert os.path.exists(golden_checkpoint)
        archive = np.load(golden_checkpoint)
        assert "__meta__/accuracy" in archive.files
        assert float(archive["__meta__/accuracy"]) > 0.9


class TestCampaign:
    def test_forward_campaign_runs(self, golden_checkpoint, capsys):
        code = main(
            [
                "campaign", golden_checkpoint, "--workbench", "mlp-moons",
                "--p", "1e-3", "--samples", "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "golden error" in out
        assert "mean_error_pct" in out

    def test_mcmc_campaign_reports_completeness(self, golden_checkpoint, capsys):
        code = main(
            [
                "campaign", golden_checkpoint, "--workbench", "mlp-moons",
                "--p", "1e-2", "--samples", "80", "--method", "mcmc",
            ]
        )
        assert code == 0
        assert "R-hat" in capsys.readouterr().out

    def test_tempering_campaign(self, golden_checkpoint, capsys):
        code = main(
            [
                "campaign", golden_checkpoint, "--workbench", "mlp-moons",
                "--p", "1e-2", "--samples", "40", "--method", "tempering",
            ]
        )
        assert code == 0
        assert "tempering" in capsys.readouterr().out


class TestSweepLayerwiseBoundary:
    def test_sweep_prints_table_and_knee(self, golden_checkpoint, capsys):
        code = main(
            [
                "sweep", golden_checkpoint, "--workbench", "mlp-moons",
                "--points", "6", "--samples", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "error_pct" in out
        assert "knee" in out

    def test_sweep_parallel_matches_sequential_output(self, golden_checkpoint, capsys):
        argv = [
            "sweep", golden_checkpoint, "--workbench", "mlp-moons",
            "--points", "5", "--samples", "24",
        ]
        assert main(argv) == 0
        sequential_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out

        def error_column(text):
            rows = [line for line in text.splitlines() if line.strip() and line[0].isdigit()]
            return [row.split()[1] for row in rows]

        assert error_column(parallel_out) == error_column(sequential_out)

    def test_layerwise(self, golden_checkpoint, capsys):
        code = main(
            [
                "layerwise", golden_checkpoint, "--workbench", "mlp-moons",
                "--p", "5e-3", "--samples", "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "layers.0" in out and "layers.2" in out

    def test_boundary(self, golden_checkpoint, capsys):
        code = main(
            [
                "boundary", golden_checkpoint, "--workbench", "mlp-moons",
                "--resolution", "16", "--samples", "20",
            ]
        )
        assert code == 0
        assert "Spearman" in capsys.readouterr().out

    def test_assess_writes_report(self, golden_checkpoint, capsys, tmp_path):
        out = str(tmp_path / "report.md")
        code = main(
            [
                "assess", golden_checkpoint, "--workbench", "mlp-moons",
                "--samples", "30", "--out", out,
            ]
        )
        assert code == 0
        assert "Fault-tolerance assessment" in capsys.readouterr().out
        with open(out) as handle:
            assert "Outcome taxonomy" in handle.read()

    def test_boundary_rejected_for_image_workbench(self, golden_checkpoint):
        with pytest.raises(SystemExit, match="no 2-D input window"):
            main(
                [
                    "boundary", golden_checkpoint, "--workbench", "mlp-images",
                ]
            )


class TestDurableCampaigns:
    """--journal/--resume plumbing and its argument validation."""

    def _sweep_argv(self, checkpoint, *extra):
        return [
            "sweep", checkpoint, "--workbench", "mlp-moons",
            "--points", "5", "--samples", "20", *extra,
        ]

    def test_resume_requires_journal_flag(self, golden_checkpoint):
        with pytest.raises(SystemExit, match="--resume requires --journal"):
            main(self._sweep_argv(golden_checkpoint, "--resume"))

    def test_resume_requires_existing_journal(self, golden_checkpoint, tmp_path):
        missing = str(tmp_path / "absent.jsonl")
        with pytest.raises(SystemExit, match="run once without --resume"):
            main(self._sweep_argv(golden_checkpoint, "--journal", missing, "--resume"))

    def test_fresh_run_refuses_existing_journal(self, golden_checkpoint, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert main(self._sweep_argv(golden_checkpoint, "--journal", journal)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="pass --resume"):
            main(self._sweep_argv(golden_checkpoint, "--journal", journal))

    def test_fingerprint_mismatch_rejected(self, golden_checkpoint, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert main(self._sweep_argv(golden_checkpoint, "--journal", journal)) == 0
        capsys.readouterr()
        # different seed ⇒ different campaign fingerprint ⇒ loud refusal
        with pytest.raises(SystemExit, match="different campaign"):
            main(
                self._sweep_argv(
                    golden_checkpoint, "--journal", journal, "--resume", "--seed", "7"
                )
            )

    def test_invalid_worker_count_rejected(self, golden_checkpoint):
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(self._sweep_argv(golden_checkpoint, "--workers", "0"))

    def test_resumed_sweep_matches_uninterrupted_output(self, golden_checkpoint, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        argv = self._sweep_argv(golden_checkpoint)
        assert main(argv) == 0
        uninterrupted = capsys.readouterr().out
        assert main(argv + ["--journal", journal]) == 0
        capsys.readouterr()
        assert main(argv + ["--journal", journal, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "restored" in resumed

        def error_column(text):
            rows = [line for line in text.splitlines() if line.strip() and line[0].isdigit()]
            return [row.split()[1] for row in rows]

        assert error_column(resumed) == error_column(uninterrupted)

    def test_campaign_command_journals(self, golden_checkpoint, tmp_path, capsys):
        journal = str(tmp_path / "campaign.jsonl")
        argv = [
            "campaign", golden_checkpoint, "--workbench", "mlp-moons",
            "--p", "1e-3", "--samples", "30", "--journal", journal,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "journal: 1 campaign(s) recorded" in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "1 campaign(s) restored" in second

        def error_line(text):
            return [line for line in text.splitlines() if "mean_error_pct" in line]

        assert os.path.exists(journal)

    def test_layerwise_journal_resume(self, golden_checkpoint, tmp_path, capsys):
        journal = str(tmp_path / "layers.jsonl")
        argv = [
            "layerwise", golden_checkpoint, "--workbench", "mlp-moons",
            "--p", "5e-3", "--samples", "20", "--journal", journal,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out

        def error_column(text):
            rows = [line for line in text.splitlines() if line.strip() and line[0].isdigit()]
            return [row.split()[2] for row in rows]

        assert error_column(first) == error_column(second)


class TestJournalPathValidation:
    """Satellite: bad --journal paths fail fast, not as OSError mid-campaign."""

    def _argv(self, checkpoint, journal):
        return [
            "campaign", checkpoint, "--workbench", "mlp-moons",
            "--p", "1e-3", "--samples", "20", "--journal", journal,
        ]

    def test_nonexistent_parent_directory_fails_fast(self, golden_checkpoint, tmp_path):
        journal = str(tmp_path / "no" / "such" / "dir" / "j.jsonl")
        with pytest.raises(SystemExit, match="parent directory .* does not exist"):
            main(self._argv(golden_checkpoint, journal))

    def test_readonly_journal_fails_fast(self, golden_checkpoint, tmp_path):
        journal = tmp_path / "frozen.jsonl"
        journal.write_text('{"journal": "bdlfi-campaign-journal", "version": 1}\n')
        journal.chmod(0o444)
        if os.access(str(journal), os.W_OK):  # running as root: not enforceable
            pytest.skip("file permissions not enforced for this user")
        try:
            with pytest.raises(SystemExit, match="read-only"):
                main(self._argv(golden_checkpoint, str(journal)) + ["--resume"])
        finally:
            journal.chmod(0o644)

    def test_readonly_directory_fails_fast(self, golden_checkpoint, tmp_path):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o555)
        if os.access(str(locked), os.W_OK):  # running as root: not enforceable
            locked.chmod(0o755)
            pytest.skip("directory permissions not enforced for this user")
        try:
            with pytest.raises(SystemExit, match="not writable"):
                main(self._argv(golden_checkpoint, str(locked / "j.jsonl")))
        finally:
            locked.chmod(0o755)

    def test_directory_as_journal_fails_fast(self, golden_checkpoint, tmp_path):
        with pytest.raises(SystemExit, match="is a directory"):
            main(self._argv(golden_checkpoint, str(tmp_path)))


class TestResilienceFlags:
    """--chaos / --on-failure / --max-attempts / --backoff plumbing."""

    def test_chaos_flags_parse(self, golden_checkpoint):
        args = build_parser().parse_args(
            [
                "campaign", golden_checkpoint, "--workbench", "mlp-moons",
                "--chaos", "worker.sigkill=0.3,journal.torn_tail=0.5:2",
                "--chaos-seed", "7", "--on-failure", "degrade",
                "--max-attempts", "5", "--backoff", "0.5",
            ]
        )
        assert args.chaos == "worker.sigkill=0.3,journal.torn_tail=0.5:2"
        assert args.chaos_seed == 7
        assert args.on_failure == "degrade"
        assert args.max_attempts == 5
        assert args.backoff == 0.5

    def test_bad_chaos_spec_rejected(self, golden_checkpoint):
        with pytest.raises(SystemExit, match="--chaos"):
            main(
                [
                    "campaign", golden_checkpoint, "--workbench", "mlp-moons",
                    "--samples", "20", "--chaos", "worker.meteor=1.0",
                ]
            )

    def test_bad_max_attempts_rejected(self, golden_checkpoint):
        with pytest.raises(SystemExit, match="--max-attempts"):
            main(
                [
                    "campaign", golden_checkpoint, "--workbench", "mlp-moons",
                    "--samples", "20", "--chaos", "pipe.drop=0.1", "--max-attempts", "0",
                ]
            )

    def test_chaos_campaign_matches_clean_output(self, golden_checkpoint, capsys):
        """A chaos run that completes prints the same numbers as a clean one."""
        argv = [
            "campaign", golden_checkpoint, "--workbench", "mlp-moons",
            "--p", "1e-3", "--samples", "30",
        ]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main(
            argv + ["--workers", "2", "--chaos", "pipe.drop=1.0:1", "--max-attempts", "3"]
        ) == 0
        chaotic = capsys.readouterr().out

        def error_cells(text):
            # numeric table rows minus the wall-clock columns (duration,
            # evals/s) — bit-identity is about the math, not the clock
            rows = [line.split() for line in text.splitlines()
                    if line.strip() and line[0].isdigit()]
            return [row[:8] for row in rows]

        assert error_cells(clean) == error_cells(chaotic)
        assert "retries" in chaotic  # the drop really happened and was retried

    def test_degraded_sweep_reports_accounting(self, golden_checkpoint, capsys):
        argv = [
            "sweep", golden_checkpoint, "--workbench", "mlp-moons",
            "--points", "2", "--samples", "12", "--workers", "2",
            "--chaos", "worker.sigkill=1.0", "--on-failure", "degrade",
            "--max-attempts", "2",
        ]
        assert main(argv) == 1  # nothing completed: non-zero exit
        out = capsys.readouterr().out
        assert "DEGRADED result: 0/2 points completed" in out
        assert "no sweep points completed" in out


class TestObservabilityFlags:
    def test_campaign_writes_trace_metrics_and_progress(
        self, golden_checkpoint, tmp_path, capsys
    ):
        import json

        from repro.utils.persist import read_checked_json

        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        events = str(tmp_path / "events.jsonl")
        code = main(
            [
                "campaign", golden_checkpoint, "--workbench", "mlp-moons",
                "--p", "1e-2", "--samples", "60", "--method", "adaptive",
                "--trace", trace, "--metrics", metrics, "--progress", events,
            ]
        )
        assert code == 0
        # trace: plain Chrome-trace JSON (no checksum wrapper) with campaign spans
        with open(trace, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert "__checksum__" not in payload
        names = {event["name"] for event in payload["traceEvents"]}
        assert "campaign.adaptive" in names
        # metrics: checksummed digest whose counters match the printed table
        snapshot = read_checked_json(metrics)
        assert snapshot["counters"]["campaigns"] == 1
        assert snapshot["counters"]["evaluations"] > 0
        # progress: machine-tailable JSONL of live mixing diagnostics
        with open(events, encoding="utf-8") as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
        assert "adaptive.progress" in kinds

    def test_sweep_parallel_with_metrics(self, golden_checkpoint, tmp_path, capsys):
        from repro.utils.persist import read_checked_json

        metrics = str(tmp_path / "metrics.json")
        code = main(
            [
                "sweep", golden_checkpoint, "--workbench", "mlp-moons",
                "--points", "5", "--samples", "20", "--workers", "2",
                "--metrics", metrics,
            ]
        )
        assert code == 0
        snapshot = read_checked_json(metrics)
        assert snapshot["counters"]["campaigns"] == 5
        assert snapshot["counters"]["executor.tasks"] == 5
        assert "executor:" in capsys.readouterr().out

    def test_progress_flag_defaults_to_stderr(self, golden_checkpoint, capsys):
        code = main(
            [
                "campaign", golden_checkpoint, "--workbench", "mlp-moons",
                "--p", "1e-2", "--samples", "60", "--method", "adaptive",
                "--progress",
            ]
        )
        assert code == 0
        assert "[adaptive.progress]" in capsys.readouterr().err


class TestSessionTeardown:
    """``main`` leaves the process as it found it: no open files, same signal handler."""

    def test_progress_stream_and_journal_are_closed(self, golden_checkpoint, tmp_path, capsys):
        argv = [
            "sweep", golden_checkpoint, "--workbench", "mlp-moons", "--points", "5",
            "--samples", "8", "--progress", str(tmp_path / "events.jsonl"),
            "--journal", str(tmp_path / "journal.jsonl"),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(argv) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.skipif(not hasattr(signal, "SIGUSR1"), reason="platform has no SIGUSR1")
    def test_flight_recorder_restores_the_sigusr1_handler(self, golden_checkpoint, tmp_path, capsys):
        before = signal.getsignal(signal.SIGUSR1)
        argv = [
            "campaign", golden_checkpoint, "--workbench", "mlp-moons", "--p", "1e-2",
            "--samples", "8", "--flight-recorder", str(tmp_path),
        ]
        assert main(argv) == 0
        assert signal.getsignal(signal.SIGUSR1) == before


class TestStoppingMonitorFlag:
    """--target-halfwidth: advisory convergence reporting, passivity."""

    def test_flags_parse_on_campaign_commands(self):
        for command in ("campaign", "sweep", "layerwise"):
            args = build_parser().parse_args(
                [command, "x.npz", "--workbench", "mlp-moons",
                 "--target-halfwidth", "0.05", "--target-mass", "0.9"]
            )
            assert args.target_halfwidth == 0.05
            assert args.target_mass == 0.9

    def test_invalid_target_rejected_before_any_work(self, golden_checkpoint):
        with pytest.raises(SystemExit, match="target-halfwidth"):
            main(
                ["campaign", golden_checkpoint, "--workbench", "mlp-moons",
                 "--p", "1e-2", "--samples", "12", "--target-halfwidth", "0.9"]
            )

    def test_campaign_prints_the_stopping_report(self, golden_checkpoint, capsys):
        code = main(
            ["campaign", golden_checkpoint, "--workbench", "mlp-moons",
             "--p", "1e-2", "--samples", "40", "--target-halfwidth", "0.4"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "stopping monitor: target halfwidth 0.4 at 95% credible mass" in err
        assert "crossed at task 0" in err

    def test_sweep_reports_one_stratum_per_point(self, golden_checkpoint, capsys):
        code = main(
            ["sweep", golden_checkpoint, "--workbench", "mlp-moons",
             "--points", "5", "--samples", "20", "--target-halfwidth", "0.45"]
        )
        assert code == 0
        err = capsys.readouterr().err
        strata = [line for line in err.splitlines() if "halfwidth" in line and "p=" in line]
        assert len(strata) == 5

    def test_monitored_campaign_output_identical_to_bare(self, golden_checkpoint, capsys):
        argv = [
            "campaign", golden_checkpoint, "--workbench", "mlp-moons",
            "--p", "1e-3", "--samples", "30",
        ]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--target-halfwidth", "0.1", "--target-mass", "0.9"]) == 0
        monitored = capsys.readouterr().out

        def result_rows(text):
            # statistical columns only — duration/throughput vary run to run
            rows = [line.split()[:6] for line in text.splitlines()
                    if line.strip() and line.split()[0] == "0.001"]
            golden = [line for line in text.splitlines() if line.startswith("golden error:")]
            return rows + [golden]

        assert result_rows(monitored) == result_rows(bare)


class TestProfileFlag:
    """--profile: hot-spot table, collapsed-stack export, composition."""

    def _campaign_argv(self, checkpoint, *extra):
        return [
            "campaign", checkpoint, "--workbench", "mlp-moons",
            "--p", "1e-3", "--samples", "25", *extra,
        ]

    def test_profile_prints_hotspot_table(self, golden_checkpoint, capsys):
        assert main(self._campaign_argv(golden_checkpoint, "--profile")) == 0
        err = capsys.readouterr().err
        assert "self_s" in err and "cum_s" in err
        assert "campaign.forward" in err  # phase rows
        assert "forward.eval" in err
        assert "matmul" in err  # op rows

    def test_profile_writes_collapsed_stacks(self, golden_checkpoint, tmp_path, capsys):
        collapsed = str(tmp_path / "profile.collapsed")
        argv = self._campaign_argv(golden_checkpoint, "--profile", collapsed)
        assert main(argv) == 0
        assert "open in speedscope" in capsys.readouterr().err
        with open(collapsed, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
        assert lines
        for line in lines:  # Brendan Gregg collapsed format: frames <micros>
            frames, micros = line.rsplit(" ", 1)
            assert frames and micros.isdigit()
        assert any(line.startswith("campaign.forward") for line in lines)

    def test_profile_output_identical_to_bare_run(self, golden_checkpoint, capsys):
        argv = self._campaign_argv(golden_checkpoint)
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--profile"]) == 0
        profiled = capsys.readouterr().out

        def result_rows(text):
            # statistical columns only — duration/throughput vary run to run
            rows = [line.split()[:6] for line in text.splitlines()
                    if line.strip() and line.split()[0] == "0.001"]
            golden = [line for line in text.splitlines() if line.startswith("golden error:")]
            return rows + [golden]

        assert result_rows(profiled) == result_rows(bare)

    def test_profile_composes_with_metrics(self, golden_checkpoint, tmp_path, capsys):
        from repro.utils.persist import read_checked_json

        metrics = str(tmp_path / "metrics.json")
        argv = self._campaign_argv(
            golden_checkpoint, "--profile", "--metrics", metrics, "--workers", "2"
        )
        assert main(argv) == 0
        capsys.readouterr()
        digest = read_checked_json(metrics)
        counters = digest["counters"]
        op_counters = {name for name in counters if name.startswith("profile.op.")}
        assert any(name.endswith(".calls") for name in op_counters)
        assert any(name.endswith(".flops") for name in op_counters)
        assert "profile.layer.forward_s" in digest["histograms"]
