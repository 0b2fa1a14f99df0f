"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import benchstats  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from benchstats import Span  # noqa: E402
from spans import Tracer  # noqa: E402


# -- percentiles with sample counts ------------------------------------
def test_quantile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert benchstats.quantile(samples, 0.0) == 1.0
    assert benchstats.quantile(samples, 1.0) == 4.0
    assert benchstats.quantile(samples, 0.5) == 2.5
    assert benchstats.quantile([float(i) for i in range(11)], 0.9) == pytest.approx(9.0)


def test_quantile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        benchstats.quantile([], 0.5)
    with pytest.raises(ValueError):
        benchstats.quantile([1.0], 1.5)


@pytest.mark.parametrize(
    "count, beyond, trusted",
    [(100, 10, True), (99, 9, False), (250, 25, True), (20, 2, False), (1, 0, False)],
)
def test_p90_needs_100_samples_for_10_beyond_it(count, beyond, trusted):
    result = benchstats.percentiles([float(i) for i in range(count)])
    assert result.count == count
    assert result.beyond_p90 == beyond
    assert result.p90_trusted is trusted


def test_samples_beyond_is_by_rank():
    assert benchstats.samples_beyond(100, 0.5) == 50
    assert benchstats.samples_beyond(10, 0.9) == 1
    ties = benchstats.percentiles([1.0] * 200)
    assert ties.p90 == 1.0 and ties.beyond_p90 == 20


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    assert benchstats.relative_spread(values) == pytest.approx((q3 - q1) / median)


def test_end_to_end_converts_to_reference_seconds():
    ops = [workloads.Op(latency=0.1 * (i + 1), ok=True, scale=2.0) for i in range(10)]
    measurement = workloads.Measurement(ops, busy_s=5.5, busy_ref_s=11.0)
    setups = [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)]
    converted = run.end_to_end(measurement, setups)
    measured = run.end_to_end(measurement, setups, raw=True)
    assert converted["setup_s"] == pytest.approx(1.0) and measured["setup_s"] == 2.0
    assert converted["ops_per_s"] == pytest.approx(10 / 11.0)
    assert measured["ops_per_s"] == pytest.approx(10 / 5.5)
    assert converted["op_s_p50"] == pytest.approx(2 * measured["op_s_p50"])
    assert converted["op_s_p90"] == pytest.approx(2 * measured["op_s_p90"])


def test_host_scale_is_reference_over_probe(monkeypatch):
    monkeypatch.setattr(benchstats, "probe_s", lambda: benchstats.REFERENCE_PROBE_S * 2)
    assert benchstats.host_scale() == pytest.approx(0.5)


def test_stratified_order_puts_one_of_each_stratum_in_every_round():
    groups = list(range(40))
    order = workloads.stratified_order(groups, seed=3, key=lambda g: g)
    assert sorted(order) == groups
    for start in range(0, 40, workloads.STRATA):
        strata = {g // 4 for g in order[start : start + workloads.STRATA]}
        assert strata == set(range(10))
    assert order != workloads.stratified_order(groups, seed=4, key=lambda g: g)


# -- self time on nested spans -----------------------------------------
def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        Span("a", None, "op", 0.0, 10.0),
        Span("b", "a", "solver", 2.0, 5.0),
        Span("c", "a", "patterns", 4.0, 8.0),  # overlaps b: 2..8 covered once
        Span("d", "b", "inner", 3.0, 4.0),  # grandchild: only b loses it
        Span("e", "a", "late", 9.0, 12.0),  # clipped to a's end
    ]
    own = benchstats.self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own["b"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(4.0)
    assert own["d"] == pytest.approx(1.0)
    busy = benchstats.busy_by_name(spans)
    # The root's 10 s plus e's 2 s past its end, plus the 1 s where the
    # overlapping siblings b and c each count their own time.
    assert sum(busy.values()) == pytest.approx(13.0)


def test_tracer_records_parent_and_op_ids():
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    tracer.patch(module, "inner", "inner")
    tracer.patch(module, "outer", "outer")
    assert module.outer(1) == 4  # inactive: no spans
    assert tracer.spans == []
    tracer.active = True
    op = tracer.new_op()
    with tracer.span("op", op=op):
        module.outer(1)
    tracer.active = False
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["outer"].parent == by_name["op"].sid
    assert {span.op for span in tracer.spans} == {op}
    tracer.unpatch()
    assert module.outer.__name__ == "<lambda>" and not hasattr(module.outer, "__wrapped__")


def test_patched_function_still_pickles_by_reference():
    from repro.orchestration import runner

    tracer = Tracer()
    original = runner.run_worker
    tracer.patch(runner, "run_worker", "orchestration.runner.run_worker")
    try:
        assert pickle.loads(pickle.dumps(runner.run_worker)) is runner.run_worker
        assert runner.run_worker is not original
    finally:
        tracer.unpatch()
    assert runner.run_worker is original


def test_forked_child_spans_are_merged(tmp_path):
    module = types.ModuleType("fake_worker")
    module.work = lambda: None
    tracer = Tracer()
    tracer.patch(module, "work", "work")
    tracer.active = True
    with tracer.span("op", op=tracer.new_op()):
        pid = os.fork()
        if pid == 0:  # child
            module.work()
            tracer.count("child.count", 3)
            tracer.flush_child(tmp_path)
            os._exit(0)
        os.waitpid(pid, 0)
    tracer.active = False
    tracer.merge_dir(tmp_path)
    names = sorted(span.name for span in tracer.spans)
    assert names == ["op", "work"]
    assert tracer.counts == {"child.count": 3}
    assert list(tmp_path.iterdir()) == []


# -- failure counting ----------------------------------------------------
def test_failed_share_bounds():
    assert benchstats.failed_share(10, 0) == 0.0
    assert benchstats.failed_share(4, 1) == 0.25
    with pytest.raises(ValueError):
        benchstats.failed_share(0, 0)
    with pytest.raises(ValueError):
        benchstats.failed_share(3, 4)


def test_wrong_or_refused_service_replies_count_as_failed():
    from repro.baselines import lpt_schedule

    instance = workloads.service_instance(1)
    expected = lpt_schedule(instance).makespan
    good = workloads.ServiceWorkload._check(
        instance, None, 0.1, {"makespan": expected, "wall_time": 0.01}
    )
    wrong = workloads.ServiceWorkload._check(
        instance, None, 0.1, {"makespan": expected + 1.0, "wall_time": 0.01}
    )
    refused = workloads.ServiceWorkload._check(instance, None, 0.1, RuntimeError("no"))
    assert good.ok and good.extra["wait_s"] == pytest.approx(0.09)
    assert not wrong.ok and not refused.ok
    ops = [good, wrong, refused]
    result = run.result_line(ops, {"ops_per_s": 1.0}, {"ops_per_s": "1/s"})
    assert result == {
        "correct": False,
        "attempted": 3,
        "failed": 2,
        "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}},
    }


def test_makespan_mismatch_against_reference_fails_the_op():
    case = workloads.milp_pool()[0][0]
    result, _ = workloads.solve_case(case, case.instance())
    reference = json.loads(workloads.REFERENCE_FILE.read_text())["cases"][case.key]
    assert workloads.check_case(result, reference) == (True, "")
    ok, why = workloads.check_case(result, {**reference, "makespan": reference["makespan"] * 2})
    assert not ok and "reference" in why
    assert workloads.check_case(result, None)[0] is False


# -- seed plumbing --------------------------------------------------------
def _order(name: str, seed: int) -> list[str]:
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, Path("."))
    return [case.key for case in workload._order]


@pytest.mark.parametrize("name", ["eptas_milp", "eptas_patterns"])
def test_eptas_seed_orders_a_fully_recorded_pool(name):
    first, again, other = _order(name, 7), _order(name, 7), _order(name, 8)
    assert first == again
    assert first != other
    assert sorted(first) == sorted(other)
    recorded = json.loads(workloads.REFERENCE_FILE.read_text())["cases"]
    assert set(first) <= set(recorded)


def test_service_plan_depends_only_on_seed_and_index():
    def plan(seed: int) -> list[tuple[str, bool]]:
        workload = workloads.ServiceWorkload()
        workload._seed = seed
        workload._journal = [
            (workloads.service_instance(seed * 10**6 + j), 0.0) for j in range(5)
        ]
        return [
            (json.dumps(instance.to_dict(), sort_keys=True), duplicate)
            for instance, _, duplicate in map(workload._plan, range(40))
        ]

    first = plan(3)
    assert first == plan(3)
    assert first != plan(4)
    duplicates = sum(duplicate for _, duplicate in first)
    assert 0 < duplicates < 40
    unique = [text for text, duplicate in first if not duplicate]
    assert len(set(unique)) == len(unique)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["better"]) == run.END_TO_END[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SOURCES", tmp_path / "src")
    code = run.main(["--workload", "eptas_milp", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
