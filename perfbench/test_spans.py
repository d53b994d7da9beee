"""Tests of the benchmark's tracing code.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from spans import Span, Tracer, installed, layer_totals, self_times, union_length  # noqa: E402

from epicross import cross, driver, epidemic, likelihood  # noqa: E402


def _tiny_chain():
    params = epidemic.EpidemicParams(beta=1.0, gamma=0.5, eps=0.01)
    data = epidemic.ssa_simulate(epidemic.chain_network(4), params, 0.1, 20.0,
                                 epidemic.NetworkState((1, 0, 0, 0)), seed=0)
    return data, params, cross.CrossConfig(r_max=3, n_max=10_000, seed=1, max_sweeps=2)


def test_union_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert union_length([(2, 3), (2, 3)], 0, 10) == 1
    assert union_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [Span("root", 0.0, 10.0, None),
             Span("a", 1.0, 4.0, 0),
             Span("b", 3.0, 6.0, 0),   # overlaps a: counted once
             Span("c", 8.0, 9.0, 0),
             Span("a.child", 1.5, 2.5, 1)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_nested_calls_record_parents():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    outer()
    totals = layer_totals(tracer.spans)
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(5.0 - 2.0)


def test_wrappers_replace_by_identity_and_are_removed():
    originals = {
        (likelihood, "log_likelihood"): likelihood.log_likelihood,
        (driver, "log_likelihood"): driver.log_likelihood,
        (driver, "cross_optimize"): driver.cross_optimize,
        (cross.CrossInterpolant, "admit"): cross.CrossInterpolant.admit,
    }
    tracer = Tracer()
    with pytest.raises(KeyError):
        with installed(tracer):
            for (owner, attr), fn in originals.items():
                assert getattr(owner, attr) is not fn
            raise KeyError("an operation failed")
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn


def test_memo_counts_match_the_run_result():
    data, params, config = _tiny_chain()
    tracer = Tracer()
    with installed(tracer):
        rr = driver.run_inference(data, params, 1.0, config)
    totals = layer_totals(tracer.spans)
    assert totals["likelihood.loglik"]["calls"] == rr.n_eval
    assert totals["likelihood.memo"]["hits"] == rr.cache_hits
    assert tracer.max_rank >= 1


def test_missing_function_reports_zero_calls(monkeypatch):
    for module in (epidemic, likelihood):
        monkeypatch.delattr(module, "transition_columns")
    data, params, config = _tiny_chain()
    tracer = Tracer()
    with installed(tracer):
        rr = driver.run_inference(data, params, 1.0, config)
    layers = run.per_layer({
        "layers": layer_totals(tracer.spans), "max_rank": tracer.max_rank,
        "read_trajectory_s": 0.0,
        "ops": [{"traced": True, "wall_s": 1.0, "problems": []}],
    })
    assert layers["epidemic.columns.calls"] == 0
    assert layers["epidemic.expm.calls"] == rr.n_eval
    assert layers["likelihood.memo.misses"] == rr.n_eval


def test_missing_module_class_or_method_is_skipped():
    targets = [("gone.module", "epicross.no_such_module", "f"),
               ("gone.class", "epicross.cross", "NoSuchClass.method"),
               ("gone.method", "epicross.cross", "CrossInterpolant.no_such_method"),
               ("likelihood.loglik", "epicross.likelihood", "log_likelihood")]
    data, params, _ = _tiny_chain()
    tracer = Tracer()
    with installed(tracer, targets):
        likelihood.log_likelihood(epidemic.chain_network(4), data, params)
    totals = layer_totals(tracer.spans)
    assert totals["likelihood.loglik"]["calls"] == 1
    assert not {"gone.module", "gone.class", "gone.method"} & set(totals)
