"""Parallel experiment orchestration.

Turns experiment campaigns into declarative, picklable
:class:`~repro.orchestrate.spec.JobSpec`\\ s executed by a
multiprocessing worker pool (:func:`~repro.orchestrate.pool.run_jobs`)
with per-job timeouts, bounded crash retry and structured failure
records, backed by a content-hash JSONL result store
(:class:`~repro.orchestrate.store.ResultStore`) that gives campaigns
caching and resume for free.  Serial execution is the ``jobs=1``
degenerate case of the same code path, so parallel results are
bit-identical to serial ones by construction.
"""

from repro.orchestrate.campaign import (
    SERVICE_FIELDS,
    expand_entries,
    load_campaign,
    parse_campaign,
    spec_from_entry,
)
from repro.orchestrate.pool import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    JobOutcome,
    PoolProgress,
    run_jobs,
)
from repro.orchestrate.recipes import (
    build_workload,
    explicit_recipe,
    known_recipes,
    materialize_spec,
    register_recipe,
)
from repro.orchestrate.runner import (
    PreparedJob,
    delivery_ratio,
    execute_job,
    metrics_to_experiment_result,
    prepare_job,
    result_to_metrics,
)
from repro.orchestrate.spec import (
    JobSpec,
    WorkloadRecipe,
    config_from_mapping,
    parse_dims,
    recipe_from_dict,
)
from repro.orchestrate.store import (
    BaseResultStore,
    CompactStats,
    ResultStore,
    copy_records,
    open_store,
)
from repro.orchestrate.store_sqlite import SqliteResultStore

__all__ = [
    "BaseResultStore",
    "CompactStats",
    "SqliteResultStore",
    "copy_records",
    "open_store",
    "FAILURE_CRASH",
    "FAILURE_EXCEPTION",
    "FAILURE_TIMEOUT",
    "JobOutcome",
    "JobSpec",
    "PoolProgress",
    "PreparedJob",
    "ResultStore",
    "WorkloadRecipe",
    "build_workload",
    "config_from_mapping",
    "delivery_ratio",
    "execute_job",
    "expand_entries",
    "explicit_recipe",
    "known_recipes",
    "load_campaign",
    "materialize_spec",
    "parse_campaign",
    "parse_dims",
    "prepare_job",
    "SERVICE_FIELDS",
    "metrics_to_experiment_result",
    "recipe_from_dict",
    "register_recipe",
    "result_to_metrics",
    "run_jobs",
    "spec_from_entry",
]
