"""Self-tests of the benchmark harness: the referee, failure accounting and
span arithmetic.  Run with ``python3 -m pytest -q bench``."""

import json
import sys

import pytest

import clock
import run
import spans
import workloads

FANO = sorted(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7))


@pytest.fixture
def harness(monkeypatch, tmp_path):
    """Run the harness in-process on a substitute operation list; the
    package modules it re-imports are swapped back out afterwards."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "ppcforge"}
    monkeypatch.setattr(run, "OUT", tmp_path)

    def go(build, *extra):
        monkeypatch.setitem(workloads.BUILD, "sweep", build)
        code = run.main(["--workload", "sweep", "--seconds", "0.01", *extra])
        return code, json.loads((tmp_path / "sweep-seed1-trace0.json").read_text())

    yield go
    for name in [k for k in sys.modules if k.split(".")[0] == "ppcforge"]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_wrong_expected_answer_fails_the_run(harness, capsys):
    def build(pf, rng, work):
        # the Fano plane's maximum PPC is 1; expecting 2 must be caught
        return [workloads._solve_file_op(pf, "t/fano", work, 7, FANO, 2, fixed=False)]

    code, result = harness(build)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out.splitlines()[-1])["correct"] is False
    assert "WRONG t/fano: max PPC 1, expected 2" in captured.err
    assert result["operations"][0]["outcome"] == "wrong"


def test_budget_exhaustion_is_a_failed_operation_not_a_wrong_answer(
    harness, capsys, monkeypatch
):
    monkeypatch.setattr(workloads, "SEQUENCE_BUDGET", 1000)

    def build(pf, rng, work):
        hard = pf.factor_join_packed(4, 10).design
        return [workloads._sequence_op(pf, "t/exhausts", hard, "open"),
                workloads._beta_op(pf, 1, 3)]

    code, result = harness(build)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and last["correct"] is True
    e2e = result["end_to_end"]
    assert e2e["failed_frac"]["value"] == 0.5
    assert e2e["proven_frac"]["value"] == 0.5
    assert [op["outcome"] for op in result["operations"][:2]] == ["unproven", "proven"]


def _span(name, start, end, parent, info=None):
    span = spans.Span(name, start, parent, "0:0")
    span.end, span.info = end, info
    return span


def test_self_time_of_a_small_span_tree():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 6.5, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    # children that overlap, or run past their parent, are counted once
    overlap = [_span("p", 0.0, 4.0, None), _span("c1", 1.0, 3.0, 0),
               _span("c2", 2.0, 5.0, 0)]
    assert spans.self_times(overlap)[0] == pytest.approx(1.0)
    assert spans.root_covered(tree + [_span("late", 12.0, 13.0, None)]) == 11.0


def test_layer_values_from_synthetic_solver_spans():
    solve = {"nodes": 1, "optimal": True, "size": 2}
    tree = [
        _span("ppc.solve_max_ppc", 0.0, 2.0, None, solve),
        _span("ppc.greedy_ppc", 0.5, 1.0, 0, {"size": 2}),
        _span("ppc.solve_max_ppc", 3.0, 4.0, None, {"nodes": 7, "optimal": False, "size": 1}),
        _span("ppc.greedy_ppc", 3.0, 3.5, 2, {"size": 1}),
    ]
    got = spans.layer_values(tree, passes=2, room_misses=4)
    assert got["ppc.solve_max_ppc.calls"] == 1.0
    assert got["ppc.solve_max_ppc.nodes"] == 4.0
    assert got["ppc.solve_max_ppc.exhausted"] == 0.5
    assert got["ppc.solve_max_ppc.root_closed"] == 0.5
    assert got["ppc.solve_max_ppc.self_s"] == pytest.approx(1.0)
    assert got["ppc.greedy_ppc.hit_ratio"] == 1.0
    assert got["onefactor.room_square.misses"] == 2.0
    # self times are scaled to the nominal host per operation
    scaled = spans.layer_values(tree, passes=2, room_misses=4, scale={"0:0": 2.0})
    assert scaled["ppc.solve_max_ppc.self_s"] == pytest.approx(2.0)


def test_tail_percentile_leaves_ten_operations_beyond():
    assert run.tail_percentile(151) == 90
    assert run.tail_percentile(503) == 98
    assert run.percentile(list(range(1, 101)), 90) == 90


def test_clock_scales_a_call_by_the_host_speed_around_it(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(clock, "perf_counter", lambda: now[0])

    def half_speed_reference():
        now[0] += 2 * clock.REF_S

    def call():
        now[0] += 1.0
        return "done"

    monkeypatch.setattr(clock, "reference", half_speed_reference)
    result, raw, nominal = clock.Clock().measure(call)
    assert result == "done"
    assert raw == pytest.approx(1.0) and nominal == pytest.approx(0.5)


def test_reference_work_is_unchanged():
    # every reported time is scaled by this work's speed
    assert clock.reference() == (8, 1184)
