"""``run.py`` end to end at a fraction of a second per workload."""

import json

import pytest

from benchmarks.perf import run, spec


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["clrp_reuse", "verify_ladder"])
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys):
    assert run.main(["--workload", workload, "--seconds", "0.3"]) == 0
    result = last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == spec.END_TO_END_NAMES
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0 and metric["unit"] == spec.UNITS[name]


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "job_roundtrip", "--seconds", "0.3",
                     "--trace", "1"]) == 0
    result = last_line(capsys)
    assert result["correct"] is True
    assert list(result["metrics"]) == spec.PER_LAYER_NAMES
    value = {n: m["value"] for n, m in result["metrics"].items()}
    assert value["client.requests"] > 0 and value["service.finish_s"] > 0
    assert value["client.roundtrip_p50_ms"] > 0
    assert value["sim.run_s"] == 0  # a layer this workload never calls
