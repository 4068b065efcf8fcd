"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None, thread=1):
    return [name, start, end, parent, thread]


def test_self_time_subtracts_children():
    spans = [span("outer", 0.0, 10.0), span("inner", 2.0, 5.0, parent=0),
             span("inner", 6.0, 7.0, parent=0)]
    assert tracing.self_times(spans) == pytest.approx(
        {"outer": 6.0, "inner": 4.0})


def test_self_time_shares_overlap_between_threads():
    spans = [span("a", 0.0, 10.0, thread=1), span("b", 5.0, 15.0, thread=2)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"a": 7.5, "b": 7.5})
    assert sum(selfs.values()) == pytest.approx(15.0)


def test_self_time_nested_and_cross_thread():
    spans = [span("outer", 0.0, 10.0, thread=1),
             span("child", 0.0, 4.0, parent=0, thread=1),
             span("other", 2.0, 6.0, thread=2)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"child": 3.0, "outer": 5.0, "other": 2.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_parent_stacks_are_per_thread():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    seen = {}

    def worker():
        record = tracer.begin("worker")
        seen["parent"] = record[3]
        tracer.end(record)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert seen["parent"] is None
    assert inner[3] == tracer.spans.index(outer)


def _bindings():
    import freqlab.coefficients
    import freqlab.cli  # noqa: F401  loads every module the CLI uses
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "freqlab" or name.startswith("freqlab."):
            snapshot[name] = dict(vars(mod))
    snapshot["CoefficientField"] = dict(
        vars(freqlab.coefficients.CoefficientField))
    return snapshot


def test_wrappers_count_and_restore_every_binding():
    import numpy as np
    import freqlab.coefficients
    from freqlab.solver import PolarGrid, clear_operator_cache

    before = _bindings()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        import freqlab.solver as solver
        assert solver.solve_dirichlet is not before["freqlab.solver"][
            "solve_dirichlet"]
        clear_operator_cache()
        f = freqlab.coefficients.CoefficientField.identity(2)
        grid = PolarGrid.disk(9, 16)
        for _ in range(2):
            u = solver.solve_dirichlet(f, 1.0, lambda p: p[:, 0], grid)
        f.evaluate(np.zeros((5, 2)))
    finally:
        restore()
        clear_operator_cache()
    after = _bindings()
    assert after.keys() == before.keys()
    for key in before:
        assert after[key].keys() == before[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, (key, attr)

    assert tracer.unwrapped == []
    counters = tracer.counters
    assert counters["solver.solve_dirichlet.calls"] == 2
    assert counters["solver.splu.calls"] == 1
    assert counters["solver.splu.fill_nnz"] == counters[
        "solver.splu.max_fill_nnz"] > 0
    assert counters["solver.operator_reuse.misses"] == 1
    assert counters["solver.operator_reuse.hits"] == 1
    assert counters["solver.unknowns"] == 2 * (u.grid.node_count - 16)
    assert counters["coefficients.evaluate.other.points"] >= 5
    assert all(record[2] is not None for record in tracer.spans)


def test_missing_entry_points_are_reported(monkeypatch):
    import freqlab.cli  # noqa: F401
    import freqlab.solver as solver

    monkeypatch.delattr(solver, "splu")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    restore()
    assert tracer.unwrapped == ["freqlab.solver.splu"]
    metrics = tracing.layer_metrics({}, {}, tracer.unwrapped, 1.0, 1.0)
    assert metrics["trace.unwrapped"]["value"] == 1
    assert metrics["solver.splu.calls"]["value"] == 0


def _fake_approx_v_outputs(out, reference):
    entry = reference["workloads"]["approx_v_33x64"]["approx_v"]
    report = {"verdict": entry["verdict"],
              "fitted": {name: {"value": v, "refined_value": rv}
                         for name, (v, rv) in entry["fitted"].items()}}
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "approx_v.report.json"), "w") as handle:
        json.dump(report, handle)


def _committed_reference():
    with open(workloads.REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def test_wrong_reference_fails_the_operation(tmp_path):
    workload = workloads.WORKLOADS["approx_v_33x64"]
    reference = _committed_reference()
    out = str(tmp_path / "out")
    _fake_approx_v_outputs(out, reference)
    assert workloads.failed_ops(workload, out, 0, 0, reference) == set()

    entry = reference["workloads"]["approx_v_33x64"]["approx_v"]
    name = sorted(entry["fitted"])[0]
    entry["fitted"][name][0] *= 1.0 + 10 * reference["rtol"]
    assert workloads.failed_ops(workload, out, 0, 5, reference) == {
        "approx_v"}
    entry["fitted"][name][0] /= 1.0 + 10 * reference["rtol"]
    entry["verdict"] = "Violated"
    assert workloads.failed_ops(workload, out, 0, 0, reference) == {
        "approx_v"}


@pytest.mark.parametrize("text", [
    "{not json", "[]", '{"fitted": {}}', '{"verdict": "Holds"}',
    '{"verdict": "Holds", "fitted": {"c": {"value": 1.0}}}'])
def test_malformed_report_fails_the_operation(tmp_path, text):
    workload = workloads.WORKLOADS["approx_v_33x64"]
    out = tmp_path / "out"
    out.mkdir()
    (out / "approx_v.report.json").write_text(text)
    assert workloads.extract(workload, str(out)) == {}
    assert workloads.failed_ops(workload, str(out), 0, 0,
                                _committed_reference()) == {"approx_v"}


def test_exit_code_error_file_and_seeded_reference():
    reference = _committed_reference()
    sweep = workloads.WORKLOADS["sweep9"]
    assert workloads.failed_ops(sweep, "/nonexistent", 1, 0,
                                reference) == set(sweep.ops)
    assert sweep.uses_reference(workloads.DEFAULT_SEED)
    assert not sweep.uses_reference(3)
    assert workloads.WORKLOADS["approx_v_33x64"].uses_reference(3)


def test_differing_bytes_fail_their_operation(tmp_path):
    workload = workloads.WORKLOADS["sweep9"]
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "tildeN.report.json").write_text("{}")
        (d / "dichot3.margins.csv").write_text("x")
        (d / "manifest.json").write_text(str(d))
    assert workloads.differing_ops(workload, str(a), str(b)) == set()
    (b / "dichot3.margins.csv").write_text("y")
    assert workloads.differing_ops(workload, str(a), str(b)) == {"dichot3"}
    (b / "sweep_summary.json").write_text("{}")
    assert workloads.differing_ops(workload, str(a), str(b)) == set(
        workload.ops)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
            ] == tracing.LAYER_METRICS
    assert {w["name"] for w in bench["workloads"]} == set(
        workloads.WORKLOADS)
    assert set(_committed_reference()["workloads"]) == set(
        workloads.WORKLOADS)
