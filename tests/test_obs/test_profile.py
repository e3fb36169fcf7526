"""The profiling layer: clocks, per-op/per-layer/per-phase accounting,
reduction, reporting, and strict passivity."""

import numpy as np
import pytest

import repro.obs as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    Profiler,
    clock_ns,
    clock_s,
    profile_module,
    wall_display,
)
from repro.nn import paper_mlp
from repro.tensor import Tensor



@pytest.fixture()
def profiler():
    """A profiler attached to the current session (and the tensor hot path)."""
    profiler = Profiler()
    with obs.Session(profiler=profiler):
        yield profiler

class TestClock:
    def test_clock_is_monotonic_nondecreasing(self):
        a = clock_s()
        b = clock_s()
        assert b >= a

    def test_clock_ns_is_integer_nanoseconds(self):
        a = clock_ns()
        b = clock_ns()
        assert isinstance(a, int) and b >= a

    def test_wall_display_is_iso8601_utc(self):
        stamp = wall_display()
        assert stamp.endswith("Z") and stamp[4] == "-" and "T" in stamp

    def test_timer_shim_uses_canonical_clock(self, monkeypatch):
        # utils.timing.Timer must delegate to the profiler clock: patch the
        # shared clock and the Timer must see the patched readings.
        import repro.utils.timing as timing

        readings = iter([10.0, 13.5])
        monkeypatch.setattr(timing, "clock_s", lambda: next(readings))
        with timing.Timer() as timer:
            pass
        assert timer.elapsed == pytest.approx(3.5)

    def test_no_wall_clock_durations_in_duration_modules(self):
        # Convention check: duration-measuring modules must go through
        # clock_s/clock_ns (obs.profile owns the only perf_counter calls);
        # time.time is reserved for display metadata.
        import inspect

        import repro.exec.executor as executor
        import repro.obs.trace as trace
        import repro.utils.timing as timing

        for module in (executor, trace, timing):
            source = inspect.getsource(module)
            assert "time.time(" not in source, module.__name__
            assert "time.perf_counter(" not in source, module.__name__
            assert "time.monotonic(" not in source, module.__name__


class TestOpRecording:
    def test_ops_counted_with_flops_and_bytes(self, profiler):
        a = Tensor(np.ones((4, 8), dtype=np.float32))
        b = Tensor(np.ones((8, 3), dtype=np.float32))
        out = a @ b
        stats = profiler.ops["matmul"]
        assert stats.calls == 1
        assert stats.flops == pytest.approx(2.0 * out.data.size * 8)
        assert stats.bytes == out.data.nbytes

    def test_explicit_flops_hint_wins(self):
        profiler = Profiler()
        out = np.zeros((2, 2), dtype=np.float32)
        profiler.record_tensor_op("conv2d", out, (), flops=123.0)
        assert profiler.ops["conv2d"].flops == 123.0

    def test_conv2d_exact_flops(self, profiler):
        from repro.tensor import conv2d, no_grad

        x = Tensor(np.ones((1, 3, 5, 5), dtype=np.float32))
        w = Tensor(np.ones((4, 3, 3, 3), dtype=np.float32))
        with no_grad():
            out = conv2d(x, w, stride=1, padding=1)
        assert profiler.ops["conv2d"].flops == pytest.approx(2.0 * out.data.size * 3 * 3 * 3)

    def test_self_time_estimator_resets_at_boundaries(self):
        profiler = Profiler()
        out = np.zeros(4, dtype=np.float32)
        profiler.record_tensor_op("relu", out, ())
        assert profiler.ops["relu"].self_s_est == 0.0  # first op: no delta
        profiler.record_tensor_op("relu", out, ())
        assert profiler.ops["relu"].self_s_est > 0.0
        profiler.reset_op_clock()
        before = profiler.ops["relu"].self_s_est
        profiler.record_tensor_op("relu", out, ())  # first after reset: no delta
        assert profiler.ops["relu"].self_s_est == before

    def test_no_profiler_attached_records_nothing(self):
        assert obs.profiler() is None
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        _ = a + a  # must not raise, must not record anywhere


class TestLayerTiming:
    def test_profile_module_records_layer_hierarchy(self, profiler):
        model = paper_mlp(rng=0).eval()
        x = Tensor(np.zeros((5, 2), dtype=np.float32))
        with profile_module(model, profiler):
            model(x)
        names = set(profiler.layers)
        assert "layers.0" in names and "layers" in names
        outer = profiler.layers["layers"]
        assert outer.calls == 1
        assert outer.forward_cum_s >= outer.forward_self_s >= 0.0
        # container cumulative time includes its children
        assert outer.forward_cum_s >= profiler.layers["layers.0"].forward_cum_s

    def test_hooks_removed_after_context(self, profiler):
        model = paper_mlp(rng=0).eval()
        x = Tensor(np.zeros((3, 2), dtype=np.float32))
        with profile_module(model, profiler):
            model(x)
        calls_inside = profiler.layers["layers.0"].calls
        model(x)  # outside: no hooks, no new samples
        assert profiler.layers["layers.0"].calls == calls_inside
        assert all(not m._forward_hooks and not m._forward_pre_hooks
                   for _, m in model.named_modules())

    def test_hooks_removed_on_exception(self):
        profiler = Profiler()
        model = paper_mlp(rng=0).eval()
        with pytest.raises(RuntimeError):
            with profile_module(model, profiler):
                raise RuntimeError("boom")
        assert all(not m._forward_hooks and not m._forward_pre_hooks
                   for _, m in model.named_modules())

    def test_backward_billed_to_live_layer(self, profiler):
        model = paper_mlp(rng=0)
        model.train()
        x = Tensor(np.random.default_rng(0).normal(size=(6, 2)).astype(np.float32))
        with profile_module(model, profiler):
            out = model(x)
        out.sum().backward()
        billed = sum(stats.backward_self_s for stats in profiler.layers.values())
        assert billed > 0.0


class TestPhases:
    def test_nested_phases_form_dotted_paths(self, profiler):
        with obs.span("campaign.forward"):
            with obs.span("flip.apply"):
                pass
            with obs.span("forward.eval"):
                pass
        assert set(profiler.phases) == {
            "campaign.forward",
            "campaign.forward/flip.apply",
            "campaign.forward/forward.eval",
        }
        outer = profiler.phases["campaign.forward"]
        children = (
            profiler.phases["campaign.forward/flip.apply"].cum_s
            + profiler.phases["campaign.forward/forward.eval"].cum_s
        )
        assert outer.cum_s >= children
        assert outer.self_s == pytest.approx(outer.cum_s - children, abs=1e-6)

    def test_span_cum_time_is_its_elapsed(self, profiler):
        with obs.span("campaign") as outer:
            with obs.span("forward.eval") as inner:
                pass
        assert profiler.phases["campaign"].cum_s == outer.elapsed
        assert profiler.phases["campaign/forward.eval"].cum_s == inner.elapsed
        assert profiler.phases["campaign"].self_s == pytest.approx(
            outer.elapsed - inner.elapsed, abs=1e-12
        )

    def test_span_counts_a_raising_body(self, profiler):
        with pytest.raises(RuntimeError):
            with obs.span("campaign"):
                with obs.span("forward.eval"):
                    raise RuntimeError("boom")
        assert profiler.phases["campaign"].count == 1
        assert profiler.phases["campaign/forward.eval"].count == 1
        assert not profiler._phase_stack

    def test_span_is_noop_when_detached(self):
        assert obs.profiler() is None
        with obs.span("anything"):
            pass  # must not raise, must not create a profiler
        assert obs.profiler() is None


class TestReduction:
    def _populated(self) -> Profiler:
        profiler = Profiler()
        out = np.zeros((3, 3), dtype=np.float32)
        profiler.record_tensor_op("matmul", out, (), flops=54.0)
        profiler._layer_enter("layers.0")
        profiler._layer_exit("layers.0")
        with obs.Session(profiler=profiler), obs.span("campaign"):
            pass
        return profiler

    def test_snapshot_merge_roundtrip(self):
        a, b = self._populated(), self._populated()
        merged = Profiler()
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        assert merged.ops["matmul"].calls == 2
        assert merged.ops["matmul"].flops == pytest.approx(108.0)
        assert merged.layers["layers.0"].calls == 2
        assert merged.phases["campaign"].count == 2

    def test_snapshot_is_json_clean(self):
        import json

        snapshot = self._populated().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_none_is_noop(self):
        profiler = Profiler()
        profiler.merge(None)
        profiler.merge({})
        assert not profiler.ops and not profiler.layers and not profiler.phases

    def test_publish_to_registry(self):
        registry = MetricsRegistry()
        self._populated().publish_to(registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["profile.op.matmul.calls"] == 1
        assert snapshot["counters"]["profile.op.matmul.flops"] == 54
        assert snapshot["counters"]["profile.phase.campaign.count"] == 1
        assert "profile.layer.forward_s" in snapshot["histograms"]


class TestReporting:
    def _busy(self) -> Profiler:
        profiler = Profiler()
        out = np.zeros((64, 64), dtype=np.float32)
        profiler.record_tensor_op("matmul", out, (), flops=1e6)
        profiler.record_tensor_op("matmul", out, (), flops=1e6)
        profiler._layer_enter("layers.0")
        profiler._layer_exit("layers.0")
        with obs.Session(profiler=profiler), obs.span("campaign.forward"):
            with obs.span("forward.eval"):
                pass
        return profiler

    def test_hotspot_rows_sorted_by_self_time(self):
        rows = self._busy().hotspot_rows()
        assert rows
        self_times = [row["self_s"] for row in rows]
        assert self_times == sorted(self_times, reverse=True)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"phase", "layer", "op"}

    def test_hotspot_table_renders(self):
        table = self._busy().hotspot_table()
        assert "self_s" in table and "cum_s" in table
        assert "matmul" in table and "layers.0" in table and "campaign.forward" in table
        assert "GFLOP" in table

    def test_hotspot_table_empty(self):
        assert "no samples" in Profiler().hotspot_table()

    def test_collapsed_stack_format(self):
        lines = self._busy().collapsed_stacks()
        assert lines
        for line in lines:
            stack, _, micros = line.rpartition(" ")
            assert stack and int(micros) > 0  # "frame;frame N"
        joined = "\n".join(lines)
        assert "campaign.forward;forward.eval" in joined or "campaign.forward " in joined
        assert any(line.startswith("ops;matmul ") for line in lines)
        assert any(line.startswith("layers;") for line in lines)

    def test_save_collapsed(self, tmp_path):
        path = tmp_path / "profile.collapsed"
        self._busy().save_collapsed(str(path))
        content = path.read_text()
        for line in content.strip().splitlines():
            frames, micros = line.rsplit(" ", 1)
            assert ";" in frames or frames
            assert micros.isdigit()


class TestWorkerPropagation:
    def test_worker_config_carries_profile_flag(self, profiler):
        assert obs.Session().worker_config().profile is False
        config = obs.current().worker_config()
        assert config.profile is True
        with config.session():
            assert obs.profiler() is not None and obs.profiler() is not profiler

    def test_drain_worker_report_ships_profile(self, profiler):
        out = np.zeros(2, dtype=np.float32)
        profiler.record_tensor_op("add", out, ())
        report = obs.current().worker_report()
        assert report["profile"]["ops"]["add"]["calls"] == 1

    def test_drain_omits_empty_profile(self, profiler):
        assert "profile" not in obs.current().worker_report()
