"""Tests of the benchmark's own logic; they never run kalmanres itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# -- self time from nested spans ---------------------------------------------


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]
    tr = tracer.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 10]))
    inner = tr.wrap("b.inner", lambda: None)
    outer = tr.wrap("a.outer", lambda: (inner(), inner()))
    outer()
    assert tr.spans["a.outer"] == [1, 10, 6]
    assert tr.spans["b.inner"] == [2, 4, 4]


def test_self_time_of_recursive_span_counts_each_level_once():
    # f(2) [0, 10] -> f(1) [2, 7] -> f(0) [3, 4]
    tr = tracer.Tracer(clock=FakeClock([0, 2, 3, 4, 7, 10]))

    def f(n):
        return n if n == 0 else wrapped(n - 1)

    wrapped = tr.wrap("a.f", f)
    wrapped(2)
    calls, total, self_s = tr.spans["a.f"]
    assert calls == 3
    assert self_s == 10  # the interval is covered once in self time
    assert total == 10 + 5 + 1  # inclusive time counts nested levels again


def test_span_closes_when_the_call_raises():
    tr = tracer.Tracer(clock=FakeClock([0, 1, 3, 4]))

    def boom():
        raise ValueError("x")

    inner = tr.wrap("b.boom", boom)

    def outer_fn():
        with pytest.raises(ValueError):
            inner()

    tr.wrap("a.outer", outer_fn)()
    assert tr.spans["b.boom"] == [1, 2, 2]
    assert tr.spans["a.outer"] == [1, 4, 2]


# -- ratio bases --------------------------------------------------------------


def test_ratio_base_zero_means_nothing_attempted():
    assert run.ratio(3, 4) == 0.75
    assert run.ratio(0, 0) == 0.0


def _report(spans, counters=None, hits=0):
    return {
        "spans": spans,
        "counters": counters or {},
        "binding_calls": {},
        "import_numpy_s": 0.1,
        "import_kalmanres_s": 0.05,
        "lr_cache": {"hits": hits, "misses": 0},
    }


def test_ratios_use_summed_counts_over_the_pass():
    # 1 hit in 1 call, then 0 hits in 3 calls: 1/4, not the mean 1/2
    a = _report({"schur.lr_coefficient": [1, 0.1, 0.1]}, {"schur.lr_nonzero": 1}, hits=1)
    b = _report({"schur.lr_coefficient": [3, 0.3, 0.3]}, {"schur.lr_nonzero": 0}, hits=0)
    m = run.layer_metrics(run.merge_reports([a, b]))
    assert m["schur.lr_coefficient_calls"] == 4
    assert m["schur.lr_coefficient_hit_ratio"] == 0.25
    assert m["schur.lr_nonzero_ratio"] == 0.25
    assert m["cli.import_numpy_s"] == pytest.approx(0.2)


def test_vanishing_ratio_is_based_on_bott_calls():
    r = _report(
        {"bott.cohomology_of_summand": [8, 1.0, 0.5], "geometric.cohomology_table": [2, 3.0, 1.0]},
        {"bott.vanishing": 6},
    )
    m = run.layer_metrics(run.merge_reports([r]))
    assert m["bott.calls"] == 8
    assert m["bott.vanishing_ratio"] == 0.75
    assert m["bott.self_s"] == 0.5
    assert m["geometric.self_s"] == 1.0


def test_layer_metrics_cover_every_per_layer_metric_but_the_overhead():
    m = run.layer_metrics(run.merge_reports([_report({})]))
    assert set(m) | {"trace.overhead_s"} == set(run.PER_LAYER)


# -- reference comparison -----------------------------------------------------


REFERENCE = b'{\n  "s": 1,\n  "seed": 0,\n  "jacobian_rank": 4,\n  "status": "ok"\n}\n'


def _child(stdout, code=0):
    return run.Child(0.1, 0.1, 30.0, code, stdout, b"")


def test_reference_comparison_flags_a_one_byte_change():
    changed = REFERENCE.replace(b'"jacobian_rank": 4', b'"jacobian_rank": 5')
    assert len(changed) == len(REFERENCE)
    assert run.stdout_diff(REFERENCE, REFERENCE, "codim") is None
    diff = run.stdout_diff(REFERENCE, changed, "codim")
    assert '-  "jacobian_rank": 4,' in diff and '+  "jacobian_rank": 5,' in diff
    assert run.check_call("codim --s 1", _child(REFERENCE), REFERENCE, None) == []
    problems = run.check_call("codim --s 1", _child(changed), REFERENCE, None)
    assert len(problems) == 1 and "differs from reference" in problems[0]


def test_reference_comparison_flags_a_trailing_byte():
    assert run.stdout_diff(REFERENCE, REFERENCE + b"\n", "codim") is not None


def test_failure_is_a_bad_exit_code_or_status_too():
    mismatch = REFERENCE.replace(b'"ok"', b'"no"')
    problems = run.check_call("codim --s 1", _child(mismatch, code=1), mismatch, None)
    assert problems == ["exit code 1", "status 'no'"]


def test_oracle_value_is_checked():
    assert run.check_call("hf", _child(REFERENCE), REFERENCE, ("jacobian_rank", 4)) == []
    problems = run.check_call("hf", _child(REFERENCE), REFERENCE, ("jacobian_rank", 3))
    assert problems == ["jacobian_rank 4 != symbolic 3"]


def test_expected_stdout_echoes_the_seed_of_sampling_calls_only():
    assert workloads.expected_stdout(REFERENCE, "codim --s 1", 0) == REFERENCE
    seeded = workloads.expected_stdout(REFERENCE, "codim --s 1", 17)
    assert seeded == REFERENCE.replace(b'"seed": 0,', b'"seed": 17,')
    assert workloads.expected_stdout(REFERENCE, "betti --s 1", 17) == REFERENCE
    assert workloads.cli_args("codim --s 1", 17) == ["codim", "--s", "1", "--json", "--seed", "17"]
    assert workloads.cli_args("betti --s 1", 17) == ["betti", "--s", "1", "--json"]


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, p",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, p):
    assert run.tail_percentile(n) == p


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))
    assert run.percentile(values, 75.0) == 30
    assert run.percentile(values, 50.0) == 20
    assert run.summarize(values) == {"n": 40, "median": 20.5, "p75": 30}
    assert run.summarize([1.0, 2.0]) == {"n": 2, "median": 1.5}


# -- binding table ------------------------------------------------------------


def test_binding_keys_are_unique_and_spans_name_their_layer():
    keys = [b.key for b in tracer.BINDINGS]
    assert len(keys) == len(set(keys))
    layers = {"partitions", "schur", "bott", "geometric", "resolutions", "kalman"}
    assert {b.span.split(".")[0] for b in tracer.BINDINGS} == layers
    assert all(b.workloads <= set(workloads.WORKLOADS) for b in tracer.BINDINGS)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("kalmanres_fake")

    def square(x):
        return x * x

    class Box:
        def size(self):
            return 3

    mod.square, mod.Box = square, Box
    monkeypatch.setitem(sys.modules, "kalmanres_fake", mod)
    return mod


def test_install_wraps_at_the_binding(fake_module):
    table = (
        tracer.Binding("fake.square", "kalmanres_fake", "square", frozenset({"w"})),
        tracer.Binding("fake.Box.size", "kalmanres_fake", "Box.size", frozenset({"w"})),
    )
    original = fake_module.square
    tr = tracer.Tracer()
    originals = tracer.install(tr, table)
    assert fake_module.square is not original
    assert originals["kalmanres_fake.square"] is original
    assert fake_module.square(3) == 9 and fake_module.Box().size() == 3
    assert tr.binding_calls == {"kalmanres_fake.square": 1, "kalmanres_fake.Box.size": 1}
    assert tr.spans["fake.square"][0] == 1


def test_missing_binding_fails_loudly(fake_module):
    table = (tracer.Binding("fake.cube", "kalmanres_fake", "cube", frozenset({"w"})),)
    with pytest.raises(tracer.BindingError, match="kalmanres_fake.cube"):
        tracer.install(tracer.Tracer(), table)


def test_unreached_names_bindings_a_workload_must_call():
    table = (
        tracer.Binding("a.f", "m", "f", frozenset({"w1"})),
        tracer.Binding("a.g", "m", "g", frozenset({"w1", "w2"})),
        tracer.Binding("a.h", "m", "h", frozenset()),
    )
    assert tracer.unreached({"m.f": 2, "m.g": 0}, "w1", table) == ["m.g"]
    assert tracer.unreached({}, "w2", table) == ["m.g"]
    assert tracer.unreached({"m.g": 1}, "w2", table) == []


# -- the contract file --------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (why, _) in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_every_call_has_a_reference():
    for _, calls in workloads.WORKLOADS.values():
        for call in calls:
            assert (run.REFERENCE / f"{workloads.slug(call)}.stdout").is_file(), call
