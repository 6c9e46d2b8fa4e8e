"""Acceptance: the scripted kill-and-resume chaos scenario.

A real ``repro serve`` subprocess is SIGKILLed mid-queue and
mid-execution, restarted with ``--resume`` each time, and has one pool
worker SIGKILLed mid-job -- while a single client stream rides its
``?since=`` cursor across every restart.  Every job must resolve
exactly once, the store must hold exactly one record per key, and the
metrics must be bit-identical to a serial ``run_jobs`` of the same
campaign.  (The harness itself raises ChaosFailure on any violation;
see repro.service.chaos for the invariant list.)
"""

import json

from repro.service.chaos import run_chaos_scenario


def test_kill_and_resume_scenario_end_to_end(tmp_path):
    report = run_chaos_scenario(
        tmp_path / "chaos", jobs=6, timeout_s=120.0
    )
    assert report["ok"]
    assert report["jobs"] == 6
    assert report["events"] == 6
    assert report["records"] == 6
    assert report["counts"]["failed"] == 0
    assert report["graceful_exit_code"] == 0
    phases = [p["phase"] for p in report["phases"]]
    assert phases == ["kill-mid-queue", "kill-mid-execution", "kill-worker"]

    # The journal survived compaction across two resumes and still
    # accounts for every job exactly once.
    journal = tmp_path / "chaos" / "chaos-journal.jsonl"
    finishes = [
        op["job_id"]
        for op in map(json.loads, journal.read_text().splitlines())
        if op["op"] == "finish"
    ]
    assert len(finishes) == 6 and len(set(finishes)) == 6
