"""Tests for the trace-driven timing model."""

import pytest

from repro.cache.hierarchy import build_hierarchy
from repro.cpu.timing import SimResult, TimingModel, _MlpWindow


def make_model(**kwargs):
    h = build_hierarchy()
    return TimingModel(h.l1, **kwargs), h


class TestMlpWindow:
    def test_no_charge_when_hidden(self):
        w = _MlpWindow(limit=2, credit=8)
        assert w.note_miss(100, 105) == 100  # 5 < credit

    def test_amortized_charge(self):
        w = _MlpWindow(limit=2, credit=0)
        assert w.note_miss(100, 120) == 110  # 20 cycles / 2

    def test_serial_when_limit_one(self):
        w = _MlpWindow(limit=1, credit=0)
        assert w.note_miss(100, 120) == 120

    def test_credit_subtracted(self):
        w = _MlpWindow(limit=1, credit=8)
        assert w.note_miss(100, 120) == 112


class TestTimingModel:
    def test_all_hit_ipc_near_issue_bound(self):
        model, h = make_model()
        h.l1.tag_store.fill(0)
        trace = [(0, 4, 0)] * 1000
        result = model.run(trace)
        # 4 instructions/ref at 4-wide = 1 cycle + 1 hit cycle
        assert 1.8 < result.ipc <= 2.2

    def test_misses_slow_things_down(self):
        model, h = make_model()
        hit_trace = [(0, 4, 0)] * 500
        miss_trace = [(i * 64, 4, 0) for i in range(500)]
        assert model.run(hit_trace).ipc > \
            TimingModel(build_hierarchy().l1).run(miss_trace).ipc

    def test_result_counters(self):
        model, h = make_model()
        trace = [(0, 1, 0), (0, 1, 0), (64, 1, 0)]
        result = model.run(trace)
        assert result.instructions == 3
        assert result.l1_accesses == 3
        assert result.l1_demand_misses == 2

    def test_mpki(self):
        r = SimResult(instructions=2000, cycles=1, l1_accesses=0, l1_hits=0,
                      l1_demand_misses=10, l2_accesses=0, l2_demand_misses=4,
                      memory_lines=0)
        assert r.l1_mpki == 5.0
        assert r.l2_mpki == 2.0

    def test_merged_burst_charged_once(self):
        """Eight refs to one in-flight line cost ~one miss, not eight."""
        model, _ = make_model(mlp=1, overlap_credit=0)
        burst = [(e * 8, 1, 0) for e in range(8)]  # one line
        r_burst = model.run(burst)
        model2, _ = make_model(mlp=1, overlap_credit=0)
        r_two = model2.run([(0, 1, 0), (64, 1, 0)])  # two full misses
        assert r_burst.cycles < r_two.cycles

    def test_validation(self):
        h = build_hierarchy()
        with pytest.raises(ValueError):
            TimingModel(h.l1, issue_width=0)
        with pytest.raises(ValueError):
            TimingModel(h.l1, overlap_credit=-1)
        with pytest.raises(ValueError):
            TimingModel(h.l1, mlp=0)

    def test_deterministic(self):
        trace = [(i * 64 % 4096, 2, 0) for i in range(300)]
        a = TimingModel(build_hierarchy().l1).run(trace)
        b = TimingModel(build_hierarchy().l1).run(trace)
        assert a.cycles == b.cycles

    def test_ipc_zero_for_empty(self):
        model, _ = make_model()
        assert model.run([]).ipc == 0.0


class TestChargedPrune:
    def test_prune_threshold_is_invisible_to_results(self, monkeypatch):
        """Sweeping the charged map early vs. never must not change
        timing: pruned entries are exactly those that can no longer
        contribute a positive exposed stall."""
        import repro.cpu.timing as timing
        from repro.experiments.perf_general import run_general_workload
        from repro.workloads.spec import make_workload

        trace = make_workload("milc", n_refs=6000, seed=3)
        baseline = run_general_workload("milc", (0, 7), trace=trace, seed=3)
        monkeypatch.setattr(timing, "CHARGED_PRUNE_THRESHOLD", 16)
        aggressive = run_general_workload("milc", (0, 7), trace=trace, seed=3)
        assert aggressive == baseline

    def test_prune_charged_drops_only_past_entries(self):
        from repro.cpu.timing import prune_charged
        charged = {1: 10, 2: 50, 3: 30}
        assert prune_charged(charged, now=30) == {2: 50}


class TestControllerOverrides:
    """Every access goes through the controller object, so an instance
    override of one of its methods takes part in ``TimingModel.run``
    (the fill-path ablation turns the NOFILL upgrade off this way)."""

    @staticmethod
    def _fills(override):
        from repro.experiments.config import BASELINE_CONFIG
        from repro.experiments.schemes import build_scheme
        from repro.workloads.spec import make_workload

        scheme = build_scheme("random_fill", BASELINE_CONFIG, seed=3)
        scheme.os.set_rr(0, 15)
        l1 = scheme.l1
        if override:
            def drop_queued_fills(now):
                l1.stats.random_fill_dropped += len(l1.fill_queue)
                l1.fill_queue.clear()

            l1._issue_random_fills = drop_queued_fills
        trace = make_workload("libquantum", n_refs=4000, seed=1)
        return TimingModel(l1, issue_width=BASELINE_CONFIG.issue_width,
                           overlap_credit=BASELINE_CONFIG.overlap_credit
                           ).run(trace).random_fill_issued

    def test_instance_override_of_fill_issue_changes_fill_count(self):
        stock = self._fills(override=False)
        assert stock > 0
        assert self._fills(override=True) == 0
