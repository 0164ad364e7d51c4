"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import bench  # noqa: E402
import spans  # noqa: E402
from neurodiff import autodiff as ad  # noqa: E402


def test_percentiles_and_sample_count():
    ms = bench.summarize_ms([k / 1e3 for k in range(100, 0, -1)])
    assert (ms["min"], ms["p50"], ms["p90"], ms["n"]) == pytest.approx(
        (1, 50, 90, 100))
    assert ms["p90_resolved"]
    short = bench.summarize_ms([k / 1e3 for k in range(1, 100)])
    assert short["n"] == 99 and not short["p90_resolved"]
    assert bench.nearest_rank([3.0], 90) == 3.0
    assert bench.nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == 2.0


def _spans(rows):
    """rows of (name, start, end, parent) -> tracer-style arrays"""
    names = sorted({r[0] for r in rows})
    ids = {n: i for i, n in enumerate(names)}
    name = np.array([ids[r[0]] for r in rows], dtype=np.int32)
    start, end = (np.array([r[k] for r in rows], dtype=float) for k in (1, 2))
    parent = np.array([r[3] for r in rows], dtype=np.int32)
    return names, name, start, end, parent


def test_self_time_of_nested_spans():
    _, _, start, end, parent = _spans([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ])
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_phases_attributed_by_parent_span():
    rows = [
        ("solver.fit", 0.0, 100.0, -1),                     # 0
        (spans.SAMPLE_TRAIN, 1.0, 2.0, 0),                  # 1
        (spans.ACCUMULATE, 3.0, 30.0, 0),                   # 2
        ("autodiff.op.variable", 3.5, 3.8, 2),              # 3: other
        (spans.REPARAMETERIZE, 4.0, 8.0, 2),                # 4: trial
        (spans.RESIDUAL, 8.0, 15.0, 2),                     # 5: residual
        (spans.BACKWARD, 9.0, 12.0, 5),                     # 6: inside residual
        (spans.LOSS, 15.0, 16.0, 2),                        # 7: loss
        (spans.BACKWARD, 17.0, 27.0, 2),                    # 8: param_grad
        (spans.SAMPLE_TRAIN, 31.0, 32.0, 0),                # 9
        (spans.ACCUMULATE, 33.0, 50.0, 0),                  # 10
        (spans.BACKWARD, 40.0, 48.0, 10),                   # 11: param_grad
        (spans.SAMPLE_VALID, 52.0, 53.0, 0),                # 12
        (spans.REPARAMETERIZE, 54.0, 60.0, 0),              # 13: validation
        (spans.LOSS, 60.0, 61.0, 0),                        # 14: validation
    ]
    names, name, start, end, parent = _spans(rows)
    p = spans.phase_times(names, name, start, end, parent, 1, len(rows))
    assert p == pytest.approx({
        "sample": 2.0 + 2.0, "trial": 4.0, "residual": 7.0, "loss": 1.0,
        "param_grad": 10.0 + 8.0, "optimizer": 1.0 + 2.0, "validation": 9.0,
        "other": (27.0 - 22.0) + (17.0 - 8.0)})
    # everything from the first sample to the last span is attributed
    assert sum(p.values()) == pytest.approx(61.0 - 1.0)


def test_useful_nodes_of_a_five_node_graph():
    before = ad.constant(0.0)
    x = ad.variable(np.array([[1.0]]))
    c = ad.constant(np.array([[2.0]]))
    y = ad.mul(x, c)
    s = ad.sin(x)
    u = ad.exp(s)
    assert spans.reachable_count([y], before._id) == 3      # y, x, c
    assert spans.reachable_count([y, u], before._id) == 5
    assert spans.reachable_count([y, u], x._id) == 4        # x built earlier
    assert spans.reachable_count([before], before._id) == 0


def test_warm_at_leaves_out_the_calibration_runs():
    clock = bench.EpochClock(None, 0.0, True)
    clock.starts = [(1.0, 0, None), (2.5, 0, None), (4.0, 0, None)]
    clock.ends = [(2.25, 0, None), (3.75, 0, None)]
    clock.calibration_s = [0.25, 0.25]
    trial = bench.Trial(clock, None)
    assert trial.warm_at(2) == pytest.approx(3.5)
    assert trial.epoch_s() == pytest.approx([1.25, 1.25])


def test_cold_setup_runs_in_a_fresh_process():
    from workloads import WORKLOADS
    (ratio,) = bench.cold_setups(WORKLOADS["decay"], seed=1, repeats=1)
    assert ratio > 1.0  # a set-up imports numpy and then does more
