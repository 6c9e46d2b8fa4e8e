"""Campaign files: a whole experiment study as one JSON document.

A campaign turns "run these N configurations" into data the batch
runner (``python -m repro batch campaign.json``) can execute, cache and
resume.  Schema::

    {
      "name": "clrp-load-sweep",
      "defaults": {                      # merged under every job entry
        "topology": "mesh", "dims": "8x8", "protocol": "clrp",
        "seed": 0, "max_cycles": 300000, "warmup": 1000,
        "workload": {"kind": "uniform", "pattern": "uniform",
                      "load": 0.1, "length": 64, "duration": 5000}
      },
      "grid": {                          # cartesian product, dotted paths
        "workload.load": [0.05, 0.1, 0.2],
        "seed": [0, 1]
      },
      "jobs": [                          # and/or explicit entries
        {"protocol": "carp", "workload": {"load": 0.3}}
      ]
    }

``grid`` expands to one entry per combination (6 above); explicit
``jobs`` entries are appended after.  Every entry is deep-merged over
``defaults`` and becomes a :class:`~repro.orchestrate.spec.JobSpec`.
Entry fields: ``topology``, ``dims`` (list or ``"8x8"`` string),
``protocol``, ``seed``, ``backend``, ``wormhole`` / ``wave`` /
``reliability`` (config kwargs; ``"reliability": {}`` turns the
ack/retransmit layer on with its defaults), ``workload`` (recipe dict),
``label``, ``max_cycles``, ``warmup``, ``fault_fraction``,
``deadlock_check_interval``, ``progress_timeout``, ``mtbf``, ``mttr``,
``metrics_every``, ``invariants_every``.  The machine fields go through
``config_from_mapping``, the decoder stored specs and the CLI flags
share.  Any other key is a :class:`~repro.errors.ConfigError` naming it
(a misspelt ``"max_cycle"`` must not silently run with the default
budget), except the submission-only :data:`SERVICE_FIELDS`: ignored.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import fields
from pathlib import Path

from repro.errors import ConfigError
from repro.orchestrate.spec import (
    RUN_FIELDS,
    JobSpec,
    config_from_mapping,
    recipe_from_dict,
)
from repro.sim.config import NetworkConfig

# Campaign fields that configure *submission* (the service layer:
# repro.service) rather than the simulation itself.  An entry may carry
# them; they are ignored, so a serviceful campaign file still runs
# byte-identically through `repro batch`.
SERVICE_FIELDS = ("tenant", "priority")

# An entry is a NetworkConfig's fields and a JobSpec's other fields, flat.
_ENTRY_FIELDS = frozenset(
    f.name for f in fields(NetworkConfig) + fields(JobSpec)
).difference(["config"]).union(SERVICE_FIELDS)


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def set_dotted(entry: dict, path: str, value) -> None:
    """``entry["a"]["b"] = value`` for the dotted path ``"a.b"``."""
    parts = path.split(".")
    node = entry
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"grid path {path!r} collides with a scalar")
    node[parts[-1]] = value


def expand_entries(data: dict) -> list[dict]:
    """Apply defaults + grid expansion, returning one dict per job."""
    defaults = data.get("defaults", {})
    entries: list[dict] = []
    grid = data.get("grid", {})
    if grid:
        if not all(isinstance(v, list) and v for v in grid.values()):
            raise ConfigError("every grid value must be a non-empty list")
        paths = list(grid)
        for combo in itertools.product(*(grid[p] for p in paths)):
            entry: dict = {}
            for path, value in zip(paths, combo):
                set_dotted(entry, path, value)
            entries.append(entry)
    entries.extend(data.get("jobs", []))
    if not entries:
        raise ConfigError("campaign defines no jobs (need 'grid' and/or 'jobs')")
    return [_deep_merge(defaults, entry) for entry in entries]


def spec_from_entry(entry: dict) -> JobSpec:
    """Build one JobSpec from a merged campaign entry."""
    unknown = entry.keys() - _ENTRY_FIELDS
    if unknown:
        raise ConfigError(
            f"unknown campaign entry field(s) {sorted(unknown)}; "
            f"accepted: {', '.join(sorted(_ENTRY_FIELDS))}"
        )
    if "workload" not in entry:
        raise ConfigError("campaign entry needs a 'workload' recipe")
    config = config_from_mapping(entry)
    workload = recipe_from_dict(entry["workload"])
    label = entry.get("label") or _default_label(config, entry["workload"])
    kwargs = {name: entry[name] for name in RUN_FIELDS if name in entry}
    return JobSpec(config=config, workload=workload, label=label, **kwargs)


def _default_label(config: NetworkConfig, workload: dict) -> str:
    shape = "x".join(str(d) for d in config.dims)
    parts = [f"{config.protocol}", f"{shape}-{config.topology}"]
    load = workload.get("load")
    if load is not None:
        parts.append(f"@{load:g}")
    if config.seed:
        parts.append(f"#{config.seed}")
    return " ".join(parts)


def parse_campaign(data: dict, default_name: str = "campaign") -> tuple[str, list[JobSpec]]:
    """Expand an in-memory campaign document into ``(name, specs)``.

    The same expansion the batch runner applies to campaign files, so a
    document POSTed to the job server (:mod:`repro.service`) yields
    exactly the specs -- and exactly the content keys -- a local
    ``repro batch`` of that file would.
    """
    if not isinstance(data, dict):
        raise ConfigError("campaign must be a JSON object")
    name = str(data.get("name", default_name))
    specs = [spec_from_entry(entry) for entry in expand_entries(data)]
    return name, specs


def load_campaign(path) -> tuple[str, list[JobSpec]]:
    """Parse a campaign file into ``(name, specs)``."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read campaign {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"campaign {path} is not valid JSON: {exc}")
    return parse_campaign(data, default_name=path.stem)
