"""Tests of the benchmark itself: generator, self time, oracle, failure count.

    python3 -m pytest bench/tests -q
"""

import pytest

import run
from oracle import Oracle, cell_params, closed_form_points, enclosure_count, grid_mhz
from tracing import NO_PARENT, Tracer, instrument, layer_metrics, self_times
from workloads import WORKLOADS, Op, all_ops, defect_probe, known_defects, round_ops


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = [op.key() for i in range(6) for op in round_ops(workload, 7, i)]
    again = [op.key() for i in range(6) for op in round_ops(workload, 7, i)]
    other = [op.key() for i in range(6) for op in round_ops(workload, 8, i)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_drawn_input_is_in_the_enumerated_pool(workload):
    pool = {op.key() for op in all_ops(workload)}
    drawn = {op.key() for seed in range(3) for i in range(12) for op in round_ops(workload, seed, i)}
    assert drawn <= pool


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5) and
    # [8, 9]; the first child has a grandchild [2, 3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 9.0, 3.0]
    parent = [NO_PARENT, 0, 0, 0, 1]
    assert self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_tracer_nests_spans_and_restores_bindings():
    import spin1topo.berry as berry
    import spin1topo.numerics as numerics
    import spin1topo.phases as phases

    original = phases.eigh_many
    tracer = Tracer()
    with instrument(tracer):
        assert berry.eigh_many is numerics.eigh_many is phases.eigh_many
        assert phases.eigh_many is not original
        op = Op("diagram", {"x": "h0", "y": "g", "steps": 2, "hr": 10.0, "x_max": 20.0, "y_max": 20.0})
        root = tracer.open("bench.op")
        run.Runner(None).run(op)
        tracer.close(root, True)
    assert phases.eigh_many is original
    m = layer_metrics(tracer, 1.0)
    assert m["phases.phase_diagram.cells"] == 4
    assert m["phases.scan_weyl_points.calls"] == 4
    assert m["numerics.eigh_many.matrices"] >= m["phases.scan.grid_matrices"] > 0
    assert list(tracer.parent).count(NO_PARENT) == 1


def test_oracle_flags_injected_wrong_chern():
    oracle = Oracle()
    op = Op("diagram", {"x": "h0", "y": "g", "steps": 3, "hr": 10.0, "x_max": 20.0, "y_max": 20.0})
    xs, ys = grid_mhz(op)
    grid = [[enclosure_count(p, closed_form_points(p)) for p in (cell_params(op, float(x), float(y)) for y in ys)]
            for x in xs]
    assert oracle.check_diagram(op, grid) == {"wrong": 0, "missing": 0}
    grid[1][2] += 1
    assert oracle.check_diagram(op, grid) == {"wrong": 1, "missing": 0}

    slow = Op("ramp", {"system": "single", "hr": 10.0, "t_ramp": 10.0, "h0": 5.0, "phi": 0.0})
    assert oracle.check_ramp(slow, 2) == {"wrong": 0}
    assert oracle.check_ramp(slow, 1) == {"wrong": 1}


def test_op_that_raises_counts_as_failed():
    runner = run.Runner(None)
    good = Op("ramp", {"system": "single", "hr": 10.0, "t_ramp": 0.5, "h0": 5.0, "phi": 0.0})
    bad = Op("ramp", {"system": "single", "hr": 10.0, "t_ramp": -1.0, "h0": 5.0, "phi": 0.0})
    records = [runner.run(good), runner.run(bad)]
    assert [r["ok"] for r in records] == [True, False]
    assert run.end_to_end(records, 1.0)["failed_frac"] == 0.5
    assert run.returned_cherns(records[1]) == 0


def test_tail_has_ten_samples_beyond():
    latencies = [float(i) for i in range(100)]
    value, pct = run.tail(latencies)
    assert sum(v > value for v in latencies) == 10
    assert pct == 90.0


def test_benchmark_json_matches_the_benchmark():
    import json
    from pathlib import Path

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timed_rounds_skip_known_defects_and_the_probe_runs_them(workload):
    defects = known_defects()
    drawn = {op.key() for seed in range(3) for i in range(12) for op in round_ops(workload, seed, i)}
    assert not drawn & defects
    probe = defect_probe(workload, 5)
    assert [op.key() for op in probe] == [op.key() for op in defect_probe(workload, 5)]
    assert all(op.key() in defects for op in probe)
    assert bool(probe) == (workload != "analytic-grid")


def test_defect_probe_ops_fail_and_are_counted():
    runner = run.Runner(None)
    records = [runner.run(op) for op in defect_probe("ramp-sweep", 1)]
    assert records and not any(r["ok"] for r in records)
