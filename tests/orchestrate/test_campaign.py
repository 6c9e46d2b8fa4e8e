"""Campaign files and the ``python -m repro batch`` command."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.orchestrate import (
    JobSpec,
    expand_entries,
    load_campaign,
    parse_campaign,
    spec_from_entry,
)


def write_campaign(path, data):
    path.write_text(json.dumps(data))
    return str(path)


TINY = {
    "name": "tiny",
    "defaults": {
        "dims": "4x4",
        "max_cycles": 20000,
        "warmup": 50,
        "workload": {
            "kind": "uniform", "load": 0.05, "length": 8, "duration": 150
        },
    },
    "grid": {
        "protocol": ["wormhole", "clrp"],
        "workload.load": [0.05, 0.08],
    },
}


class TestExpansion:
    def test_grid_cartesian_product(self):
        entries = expand_entries(TINY)
        assert len(entries) == 4
        assert {(e["protocol"], e["workload"]["load"]) for e in entries} == {
            ("wormhole", 0.05), ("wormhole", 0.08),
            ("clrp", 0.05), ("clrp", 0.08),
        }
        # defaults deep-merged under the dotted grid override
        assert all(e["workload"]["length"] == 8 for e in entries)

    def test_explicit_jobs_appended(self):
        data = dict(TINY, jobs=[{"protocol": "carp"}])
        entries = expand_entries(data)
        assert len(entries) == 5
        assert entries[-1]["protocol"] == "carp"

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigError, match="no jobs"):
            expand_entries({"defaults": {}})

    def test_bad_grid_value_rejected(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            expand_entries({"grid": {"seed": 3}})


class TestSpecFromEntry:
    def test_builds_config_and_labels(self):
        entries = expand_entries(TINY)
        specs = [spec_from_entry(e) for e in entries]
        assert {s.config.protocol for s in specs} == {"wormhole", "clrp"}
        assert all(s.max_cycles == 20000 for s in specs)
        assert all(s.warmup == 50 for s in specs)
        assert len({s.key() for s in specs}) == 4
        assert len({s.label for s in specs}) == 4

    def test_wormhole_entry_gets_no_wave(self):
        spec = spec_from_entry(expand_entries(TINY)[0])
        if spec.config.protocol == "wormhole":
            assert spec.config.wave is None

    def test_missing_workload_rejected(self):
        with pytest.raises(ConfigError, match="workload"):
            spec_from_entry({"protocol": "clrp"})

    def test_dims_string_or_list(self):
        base = {"workload": {"kind": "uniform", "load": 0.1, "length": 8,
                             "duration": 100}}
        a = spec_from_entry(dict(base, dims="4x4"))
        b = spec_from_entry(dict(base, dims=[4, 4]))
        assert a.config.dims == b.config.dims == (4, 4)


class TestOneDecoder:
    """Entries and stored specs decode their machine through one function."""

    DOC = {
        "defaults": {
            "dims": "4x4", "protocol": "clrp", "reliability": {},
            "backend": "vectorized",
            "workload": {"kind": "uniform", "load": 0.1, "length": 8,
                         "duration": 100},
        },
        "jobs": [{}],
    }

    def test_reliability_and_backend_are_honoured(self):
        """Both were silently dropped: the entry ran unreliable on the
        default backend while the same fields in a stored spec took."""
        _, [spec] = parse_campaign(self.DOC)
        assert spec.config.reliability is not None
        assert spec.config.backend == "vectorized"
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_entry_key_is_rejected_by_name(self):
        doc = {**self.DOC, "jobs": [{"max_cycle": 10}]}
        with pytest.raises(ConfigError, match=r"max_cycle.*max_cycles"):
            parse_campaign(doc)

    def test_service_fields_are_allowed_in_entries(self):
        doc = {**self.DOC, "jobs": [{"tenant": "alice", "priority": 3}]}
        _, [dressed] = parse_campaign(doc)
        _, [plain] = parse_campaign(self.DOC)
        assert dressed.key() == plain.key()

    @pytest.mark.parametrize("name, jobs, digest", [
        ("clrp_load_sweep", 10, "85d9588c40f5219e"),
        ("service_demo", 12, "a0089a02b124be13"),
        ("e7b_dynamic_faults", 10, "a3bab73998a865a1"),
    ])
    def test_shipped_campaigns_keep_their_keys(self, name, jobs, digest):
        """Digests of the content keys the pre-merge decoder produced."""
        campaigns = Path(__file__).resolve().parents[2] / "examples/campaigns"
        _, specs = load_campaign(campaigns / f"{name}.json")
        assert len(specs) == jobs
        keys = "".join(spec.key() for spec in specs)
        assert hashlib.sha256(keys.encode()).hexdigest()[:16] == digest


class TestLoadCampaign:
    def test_load_names_and_counts(self, tmp_path):
        path = write_campaign(tmp_path / "c.json", TINY)
        name, specs = load_campaign(path)
        assert name == "tiny"
        assert len(specs) == 4

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_campaign(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read campaign"):
            load_campaign(tmp_path / "absent.json")


class TestBatchCommand:
    def test_batch_runs_and_resumes(self, tmp_path, capsys):
        path = write_campaign(tmp_path / "tiny.json", TINY)
        code = main(["batch", path, "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign tiny: 4 jobs" in out
        assert "[4/4]" in out
        assert (tmp_path / "tiny.results.jsonl").exists()

        # Second invocation: everything served from the result store.
        code = main(["batch", path, "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 cached" in out
        assert out.count("cached") >= 4

    def test_batch_reports_failures_and_exit_code(self, tmp_path, capsys):
        data = dict(TINY)
        data["jobs"] = [
            # invalid: offered load of 4 flits/cycle with 8-flit messages
            # is fine, but load > length means > 1 msg/cycle -> ConfigError
            {"workload": {"load": 9.0}, "label": "doomed"}
        ]
        path = write_campaign(tmp_path / "mixed.json", data)
        code = main(["batch", path, "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "failure: doomed" in out
        assert "4/5 jobs ok" in out

    def test_batch_rejects_misspelt_entry_key(self, tmp_path, capsys):
        data = dict(TINY, defaults={**TINY["defaults"], "max_cycle": 10})
        path = write_campaign(tmp_path / "typo.json", data)
        assert main(["batch", path]) == 2
        assert "max_cycle" in capsys.readouterr().err
        assert not (tmp_path / "typo.results.jsonl").exists()

    def test_batch_custom_store_path(self, tmp_path, capsys):
        path = write_campaign(tmp_path / "tiny.json", TINY)
        store = tmp_path / "elsewhere" / "r.jsonl"
        code = main(["batch", path, "--jobs", "1", "--store", str(store)])
        assert code == 0
        assert store.exists()
