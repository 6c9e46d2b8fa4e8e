"""Frozen CLI behaviour: every simulating subcommand against the parent.

``tests/corpus/cli_goldens.json`` was written at commit addfdd1 by
``tests/corpus/gen_cli_goldens.py``, the last commit whose ``cli.py``
built configs, workloads, faults and simulators itself
(``build_config``, ``build_items``, ``build_faults``, ``simulate``,
``job_spec``).  Each golden is one invocation's exit code, stdout and
stderr (wall-clock figures masked) and, for the store-writing
subcommands, the store keys with each record's canonical metrics JSON.
The CLI now reaches results through ``spec_from_entry`` ->
``prepare_job`` -> ``PreparedJob.run`` only; it must print the same
bytes and write the same records.  Never regenerate the file to make a CLI
refactor pass.
"""

import json
from pathlib import Path

import pytest
from helpers import replay_cli

GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "corpus" / "cli_goldens.json")
    .read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", list(GOLDENS))
def test_cli_replays_parent_output(name, tmp_path):
    golden = GOLDENS[name]
    got = replay_cli(
        golden["argv"], golden["files"], golden["store"], tmp_path
    )
    assert got == golden["expect"]
