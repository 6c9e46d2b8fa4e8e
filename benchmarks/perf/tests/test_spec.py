"""``BENCHMARK.json`` stays what ``spec.py`` says and inside the
builder contract's limits."""

import json
import re

from benchmarks.perf import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_file_is_the_generated_document():
    on_disk = json.loads(spec.BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_document()


def test_document_respects_the_contract_limits():
    doc = spec.benchmark_document()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["paths"] == ["benchmarks/perf"]
    assert all(
        not part.startswith("/") and ".." not in part
        for part in doc["command"]
    )
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = (
        [w["name"] for w in doc["workloads"]]
        + [m["name"] for m in doc["end_to_end"]]
        + [m["name"] for m in doc["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc, indent=2)) < 64 * 1024
