"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from collections import Counter

import pytest

import inputs
import run
import tracing

sys.path.insert(0, str(run.SRC))

from ktri import DyckPath, catalan_determinant, dominates  # noqa: E402


def heights(steps: str) -> list[int]:
    out = [0]
    for ch in steps:
        out.append(out[-1] + (1 if ch == "N" else -1))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_pairs_dominate_at_the_requested_semilength(seed):
    rng = random.Random(seed)
    for m in range(1, 17):
        upper, lower = inputs.dominating_pair(rng, m)
        hu, hl = heights(upper), heights(lower)
        assert len(upper) == len(lower) == 2 * m
        assert hu[-1] == hl[-1] == 0 and min(hl) == 0
        assert all(a >= b for a, b in zip(hu, hl))
        assert dominates(DyckPath(upper), DyckPath(lower))


def test_cycle_lemma_paths_are_uniform():
    rng = random.Random(0)
    seen = Counter(inputs.path_steps(inputs.dyck_heights(rng, 3)) for _ in range(5000))
    assert len(seen) == 5  # the five Dyck paths of semilength 3
    assert all(abs(c - 1000) < 150 for c in seen.values()), seen


@pytest.mark.parametrize("k", range(1, 6))
def test_product_formula_equals_catalan_determinant(k):
    for n in range(2 * k + 1, 2 * k + 20):
        assert inputs.count_product(n, k) == catalan_determinant(n, k), (n, k)


def test_count_grid_stays_inside_the_polygon_range():
    grid = inputs.count_grid(random.Random(3))
    assert len(grid) == len(inputs.COUNT_KS) * len(inputs.COUNT_CENTERS)
    assert all(n > 2 * k for n, k in grid)


def test_self_time_on_a_synthetic_span_tree():
    # 0: [0, 10] with children 1: [1, 3] and 2: [2, 4] (overlapping, union 3 s)
    # and 3: [6, 7], which has child 4: [6.5, 6.8]; 5: [9, 12] runs past its
    # parent 0, so only [9, 10] counts against 0.
    starts = [0.0, 1.0, 2.0, 6.0, 6.5, 9.0]
    ends = [10.0, 3.0, 4.0, 7.0, 6.8, 12.0]
    parents = [-1, 0, 0, 0, 3, 0]
    got = tracing.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 1 - 1, 2, 2, 0.7, 0.3, 3])


def test_percentile_leaves_ten_samples_above():
    assert run.percentile_name(100) == 90
    assert run.percentile_name(72) == 85
    assert run.percentile_name(30) == 65


def test_timed_excludes_its_probes_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    result, measured, nominal = run.timed(lambda: time.sleep(0.3) or "done", "objects")
    assert result == "done"
    assert 0.29 < measured < 0.33
    assert nominal > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def traced_workloads():
    _, _, cli, bijection = run.set_up("bijection", 0)
    bijection.pools = [[pair for pair in bijection.pools[0] if len(pair[0]) <= 12][:4]]
    verify = run.Verify(0)
    verify.runs = [(2, 6)]
    enumerate_ = run.Enumerate(0)
    enumerate_.requests = [(k, n, m) for k, n, m in enumerate_.requests if n <= 8]
    count = run.Count(0)
    count.grid = count.grid[:3]
    return cli, [bijection, verify, enumerate_, count]


def test_traced_pass_wraps_every_target_and_restores_every_name():
    cli, workloads = traced_workloads()
    assert tracing.find_wrapped() == []
    tracer = tracing.Tracer()
    with tracer.installed():
        assert "ktri.gentree2.is_k_triangulation" in tracing.find_wrapped()
        assert "ktri.polygon.KTriangulation.certified" in tracing.find_wrapped()
        for workload in workloads:
            workload.run_pass(run.Client(cli, workload.reference, tracer), 0)
    assert tracing.find_wrapped() == []
    assert all(w.failed == 0 and w.attempted > 0 for w in workloads)

    metrics = tracer.layer_metrics()
    units = tracing.layer_metric_units()
    assert set(metrics) | {tracing.OVERHEAD} == set(units)
    for module, attribute, _ in tracing.TARGETS:
        assert metrics[f"{tracing.span_name(module, attribute)}.calls"] > 0, attribute
    for check in ("counting", "bijection", "structure_lemmas", "k2_specialization"):
        assert metrics[f"verify.check.{check}_s"] > 0
    assert 0 < metrics["bijection.from_paths.kept_ratio"] <= 1
    assert 0 < metrics["gentree.validate_share"] < 1
    assert set(tracer.requests) == set(range(max(tracer.requests) + 1))


def test_a_wrong_answer_counts_as_a_failure():
    _, _, cli, count = run.set_up("count", 0)
    count.grid = [(n, k, expected + "0") for n, k, expected in count.grid[:2]]
    count.run_pass(run.Client(cli, count.reference), 0)
    assert (count.attempted, count.failed) == (2, 2)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.GATED
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_metric_units()
