"""Tests of the benchmark itself: span arithmetic, the tail-percentile
rule, output checks against references, the speed probe, and tracer
robustness."""

import signal
import time

import pytest
import scipy.linalg

import aggmfg
import bench
import spans
import speed
import workloads


def _tiny_solve(reference=None):
    cfg = workloads.solve_config(1, 8.0, 33, 16, 0.05, 1.0)
    return workloads.Workload("tiny_solve", "run_single", cfg, reference)


def _tiny_sweep(reference=None):
    cfg = workloads.sweep_config(1.0, 1.0)
    cfg["sweep"].update(sigma_grid=[0.05, 30.0], horizon_grid=[4.0], nx=17, nt_per_unit=8)
    return workloads.Workload("tiny_sweep", "run_sweep", cfg, reference)


# --- span arithmetic --------------------------------------------------------

# (id, name, start, end, parent, run): a root with two children, the first of
# which calls a stencil and a nested copy of itself
SPANS = [
    (0, "runs.run_single", 0.0, 10.0, -1, 0),
    (1, "solver.picard", 1.0, 5.0, 0, 0),
    (2, "discretization.gradient", 2.0, 3.0, 1, 0),
    (3, "solver.picard", 3.5, 4.5, 1, 0),
    (4, "parabolic.heat", 6.0, 9.0, 0, 0),
]


def test_self_time_subtracts_direct_children_only():
    table = spans.SpanTable(SPANS)
    assert table.self_time.tolist() == [10 - 4 - 3, 4 - 1 - 1, 1.0, 1.0, 3.0]
    assert table.self_time.sum() == pytest.approx(10.0)


def test_self_time_keeps_inline_children_in_the_caller():
    table = spans.SpanTable(SPANS, inline=spans.STENCILS)
    assert table.self_time.tolist() == [3.0, 4 - 1, 1.0, 1.0, 3.0]


def test_outermost_skips_spans_nested_in_the_same_set():
    table = spans.SpanTable(SPANS)
    assert table.outermost(["solver.picard"]).tolist() == [False, True, False, False, False]


def test_span_table_offsets_ids_of_a_later_run():
    later = [(i + 7, n, a, b, p + 7 if p >= 0 else -1, 1) for i, n, a, b, p, _ in SPANS]
    assert spans.SpanTable(later).self_time.tolist() == spans.SpanTable(SPANS).self_time.tolist()


# --- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n, want", [(5, None), (19, None), (20, 50), (39, 50), (40, 75),
                                     (100, 90), (199, 90), (200, 95), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    got = bench.tail_percentile(samples)
    if want is None:
        assert got is None
        return
    p, value = got
    assert p == want
    assert sum(1 for x in samples if x > value) >= 10


# --- output checks ----------------------------------------------------------

def _fail_frac(calls):
    return sum(1 for c in calls if c.problems) / len(calls)


def test_solve_check_passes_on_own_reference_and_fails_on_a_wrong_one(tmp_path):
    calls = bench.run_untraced(_tiny_solve(), 0.0, str(tmp_path))
    assert _fail_frac(calls) == 0.0, calls[0].problems

    summary = aggmfg.runs.run_single(_tiny_solve().config, out_dir=str(tmp_path / "ref"))
    right = _tiny_solve({"d_final": summary["d_final"] * (1 + 1e-9)})
    wrong = _tiny_solve({"d_final": summary["d_final"] * 1.01})
    assert _fail_frac(bench.run_untraced(right, 0.0, str(tmp_path))) == 0.0
    calls = [bench.timed_call(wrong, str(tmp_path)) for _ in range(2)]
    assert _fail_frac(calls) == 1.0
    assert "differs from reference" in calls[0].problems[0]


def test_sweep_check_fails_on_a_wrong_phase_table(tmp_path):
    probe = _tiny_sweep()
    summary = aggmfg.runs.run_sweep(probe.config, out_dir=str(tmp_path / "ref"))
    table = [[c["sigma"], c["horizon"], c["verdict"], c["refine_level"]] for c in summary["cells"]]
    assert _fail_frac(bench.run_untraced(_tiny_sweep({"cells": table}), 0.0, str(tmp_path))) == 0.0
    table[0][2] = "non_convergent"
    calls = bench.run_untraced(_tiny_sweep({"cells": table}), 0.0, str(tmp_path))
    assert _fail_frac(calls) == 1.0


def test_a_raising_call_counts_as_failed(tmp_path):
    broken = workloads.Workload("broken", "run_single", {"problem": {}}, None)
    call = bench.timed_call(broken, str(tmp_path))
    assert call.seconds is None and "ConfigError" in call.problems[0]


def test_a_sampled_call_gets_seconds_at_the_reference_speed(tmp_path):
    call = bench.timed_call(_tiny_solve(), str(tmp_path), sampled=True)
    assert not call.problems and call.ref_seconds > 0
    assert bench.timed_call(_tiny_solve(), str(tmp_path)).ref_seconds is None


# --- speed probe ------------------------------------------------------------

def test_rescale_divides_by_the_harmonic_mean_of_the_probes():
    assert speed.harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)
    probe = 2.0 * speed.REFERENCE_PROBE_S  # a host at half the reference speed
    assert speed.rescale(3.0, [probe, probe]) == pytest.approx(1.5)


def test_sampler_probes_during_the_block_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 6 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3 and sampler.spent > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with speed.Sampler() as short:
        pass
    assert len(short.samples) == 1


# --- seeds ------------------------------------------------------------------

def test_seed_zero_is_canonical_and_other_seeds_jitter_a_little():
    w0 = workloads.make_workload("solve_1d", 0)
    assert w0.config["problem"]["sigma"] == 0.05
    assert w0.config["problem"]["initial_density"]["stds"] == [1.0]
    assert w0.reference == workloads.REFERENCES["solve_1d"]
    w3 = workloads.make_workload("solve_1d", 3)
    assert w3 == workloads.make_workload("solve_1d", 3)
    assert w3.reference is None
    assert abs(w3.config["problem"]["sigma"] / 0.05 - 1) <= workloads.JITTER
    assert w3.config["problem"]["sigma"] != 0.05
    sweep = workloads.make_workload("sweep", 0).config["sweep"]
    assert sweep["sigma_grid"] == [0.05, 5.0, 14.0, 20.0, 30.0] and sweep["workers"] == 1


# --- tracer -----------------------------------------------------------------

def test_tracer_wraps_every_namespace_and_restores_them(tmp_path):
    original = aggmfg.parabolic.solve_fokker_planck
    with spans.Tracer() as tracer:
        assert aggmfg.solver.solve_fokker_planck is aggmfg.parabolic.solve_fokker_planck
        assert aggmfg.solver.solve_fokker_planck.__wrapped__ is original
        assert aggmfg.runs.solve is aggmfg.solver.solve is aggmfg.solve
        assert aggmfg.parabolic.solve_banded.__wrapped__ is scipy.linalg.solve_banded
        call = bench.timed_call(_tiny_solve(), str(tmp_path), tracer)
    assert aggmfg.solver.solve_fokker_planck is original
    assert aggmfg.parabolic.solve_banded is scipy.linalg.solve_banded
    assert tracer.missing == []
    metrics = spans.layer_metrics(spans.SpanTable(tracer.spans, spans.STENCILS), tracer.tags,
                                  call.io_bytes)
    # 1D implicit Euler: one tridiagonal solve per time step and march
    marches = metrics["parabolic.heat.calls"] + metrics["parabolic.fp.calls"]
    assert metrics["parabolic.tridiag.calls"] == 16 * marches
    assert metrics["parabolic.tridiag.rows_per_call"] == 33
    assert metrics["solver.iterations"] == metrics["parabolic.heat.calls"]
    assert metrics["runs.solves"] == 1 and metrics["solver.converged_frac"] == 1.0
    assert metrics["runs.io_bytes"] > 0


def test_missing_wrapped_names_read_zero_instead_of_crashing(tmp_path):
    targets = {k: v for k, v in spans.TARGETS.items() if k != "parabolic.tridiag"}
    targets["parabolic.tridiag"] = ("aggmfg.parabolic", "no_such_kernel")
    targets["gone.module"] = ("aggmfg.no_such_module", "solve")
    with spans.Tracer(targets) as tracer:
        call = bench.timed_call(_tiny_solve(), str(tmp_path), tracer)
    assert call.problems == []
    assert sorted(tracer.missing) == ["gone.module", "parabolic.tridiag"]
    metrics = spans.layer_metrics(spans.SpanTable(tracer.spans), tracer.tags, call.io_bytes)
    assert metrics["parabolic.tridiag.calls"] == 0
    assert metrics["parabolic.tridiag.us_per_call"] == 0.0
    assert metrics["solver.iterations"] > 0


def test_metric_names_match_benchmark_json():
    per_layer = bench.benchmark_units("per_layer")
    table = spans.SpanTable(SPANS)
    assert set(spans.layer_metrics(table, {}, 0)) | {"trace.overhead_s"} == set(per_layer)
    assert set(bench.benchmark_units("end_to_end")) == {"setup_s", "wall_norm_s", "peak_rss_mb"}
