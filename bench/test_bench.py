"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from jno import evaluator as ev  # noqa: E402
from jno import nn  # noqa: E402
from jno import tensor as T  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in CONTRACT["per_layer"] if m["unit"] == "count"]


def _run(name, seed, trace):
    result, report, _ = harness.measure(
        name, seed, 60.0, trace, sizes=workloads.TINY, max_ops=2)
    return result, report


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_two_tiny_ops_report_every_metric(name, trace):
    originals = (T.add, T.Tape.gradient, ev.evaluate, dict(ev.HANDLERS),
                 nn.MLP.forward, nn.optimizer_step)
    result, report = _run(name, 3, trace)
    assert result["correct"], report["failures"]
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert report["error_rate"] == 0.0
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        # the stages cover the op, so their fastest times sum to at most
        # the fastest op
        fast = report["op_fast_ms"]
        assert sum(report["stage_min_ms"].values()) == pytest.approx(fast)
        assert 0.0 < fast <= report["op_min_ms"]
        assert result["metrics"]["op_fast_rel"]["value"] == \
            pytest.approx(fast / report["ref_loop_ms"])
    # the traced run leaves jno as it found it
    assert (T.add, T.Tape.gradient, ev.evaluate, dict(ev.HANDLERS),
            nn.MLP.forward, nn.optimizer_step) == originals


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_counts_error_and_inputs(name):
    first, first_report = _run(name, 5, 1)
    again, again_report = _run(name, 5, 1)
    for metric in COUNTS:
        assert first["metrics"][metric] == again["metrics"][metric], metric
    assert first_report.get("rel_l2_err") == again_report.get("rel_l2_err")
    assert first_report["first_inputs_sha1"] == \
        again_report["first_inputs_sha1"]
    _, other_report = _run(name, 6, 0)
    assert other_report["first_inputs_sha1"] != \
        first_report["first_inputs_sha1"]


def test_pinn_reports_rel_l2_err_after_fixed_steps():
    _, report = _run("pinn_ad", 5, 0)
    assert report["steps"] >= workloads.TINY["pinn_ad"].fixed_steps
    assert 0.0 < report["rel_l2_err"] < float("inf")


def test_refuses_unpinned_blas():
    assert harness.pinning_problem({"blas_threads": {"libblas.so": 1}}) is None
    assert harness.pinning_problem({"blas_threads": {"libblas.so": 2}})
    assert harness.pinning_problem({"blas_threads": {}})
