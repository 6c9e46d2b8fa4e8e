"""JobSpec / WorkloadRecipe: content keys, serialisation, recipes."""

import pytest

from repro.errors import ConfigError
from repro.orchestrate import (
    JobSpec,
    WorkloadRecipe,
    build_workload,
    explicit_recipe,
    materialize_spec,
    recipe_from_dict,
)
from repro.sim.config import NetworkConfig, WaveConfig
from repro.topology import build_topology


def clrp_spec(load=0.1, seed=0, **kwargs) -> JobSpec:
    return JobSpec(
        config=NetworkConfig(dims=(4, 4), protocol="clrp", seed=seed),
        workload=WorkloadRecipe.make(
            "uniform", load=load, length=16, duration=300
        ),
        **kwargs,
    )


class TestRecipe:
    def test_param_order_is_canonical(self):
        a = WorkloadRecipe.make("uniform", load=0.1, length=16, duration=300)
        b = WorkloadRecipe.make("uniform", duration=300, length=16, load=0.1)
        assert a == b
        assert hash(a) == hash(b)

    def test_lists_frozen_to_tuples(self):
        recipe = WorkloadRecipe.make("pair_stream", pairs=[[0, 1], [2, 3]])
        assert recipe.param("pairs") == ((0, 1), (2, 3))
        assert recipe.as_dict()["pairs"] == [[0, 1], [2, 3]]

    def test_rejects_unserialisable_params(self):
        with pytest.raises(ConfigError):
            WorkloadRecipe.make("uniform", fn=lambda: None)

    def test_from_dict_round_trip(self):
        recipe = WorkloadRecipe.make("uniform", load=0.1, length=16)
        assert recipe_from_dict(recipe.as_dict()) == recipe

    def test_missing_required_param(self):
        spec = JobSpec(
            config=NetworkConfig(dims=(4, 4)),
            workload=WorkloadRecipe.make("uniform", load=0.1),
        )
        with pytest.raises(ConfigError, match="requires parameter"):
            build_workload(spec, build_topology("mesh", (4, 4)))


class TestSpecKey:
    def test_stable_for_equal_specs(self):
        assert clrp_spec().key() == clrp_spec().key()

    def test_differs_across_content(self):
        keys = {
            clrp_spec().key(),
            clrp_spec(load=0.2).key(),
            clrp_spec(seed=1).key(),
            clrp_spec(max_cycles=999).key(),
            clrp_spec(fault_fraction=0.1).key(),
        }
        assert len(keys) == 5

    def test_label_is_cosmetic(self):
        assert clrp_spec(label="a").key() == clrp_spec(label="b").key()

    def test_survives_json_round_trip(self):
        spec = clrp_spec(label="point")
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

    def test_wave_none_round_trip(self):
        spec = JobSpec(
            config=NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None),
            workload=WorkloadRecipe.make(
                "uniform", load=0.1, length=16, duration=300
            ),
        )
        again = JobSpec.from_dict(spec.to_dict())
        assert again.config.wave is None
        assert again.key() == spec.key()

    def test_wave_config_params_in_key(self):
        a = clrp_spec()
        b = JobSpec(
            config=NetworkConfig(
                dims=(4, 4), protocol="clrp", wave=WaveConfig(num_switches=3)
            ),
            workload=a.workload,
        )
        assert a.key() != b.key()


class TestServiceEnvelopeKeyStability:
    """Service metadata must never move a spec's content key.

    The job service (:mod:`repro.service`) hangs tenant / priority /
    submitted_at on the :class:`~repro.service.model.SubmittedJob`
    envelope, never on the JobSpec.  If any service-only field ever
    leaked into ``key()``, every stored result would silently stop
    being a cache hit -- so the key of a reference spec is pinned to a
    golden value here.
    """

    # Computed once from the spec below; a change means every existing
    # result store on disk is invalidated.  Do not update this constant
    # without a deliberate cache-migration plan.
    GOLDEN_KEY = "9adaae96ee63002ab51ed6754ecc3c4b"

    def golden_spec(self) -> JobSpec:
        return JobSpec(
            config=NetworkConfig(dims=(4, 4), protocol="clrp", seed=7),
            workload=WorkloadRecipe.make(
                "uniform", load=0.1, length=16, duration=300
            ),
        )

    def test_golden_key_is_pinned(self):
        assert self.golden_spec().key() == self.GOLDEN_KEY

    def test_envelope_fields_do_not_change_key(self):
        from repro.service.model import SubmittedJob

        spec = self.golden_spec()
        plain = SubmittedJob(spec=spec)
        dressed = SubmittedJob(
            spec=spec, tenant="alice", priority=99, campaign="urgent",
            campaign_id="c-9999", submitted_at=1234567890.0,
        )
        assert plain.key == dressed.key == self.GOLDEN_KEY

    def test_spec_dataclass_has_no_service_fields(self):
        """Envelope fields must not even exist on JobSpec, so they can
        never be serialised into the content hash by accident."""
        import dataclasses

        spec_fields = {f.name for f in dataclasses.fields(JobSpec)}
        assert spec_fields.isdisjoint({"tenant", "priority", "submitted_at"})

    def test_campaign_service_fields_are_not_spec_fields(self):
        from repro.orchestrate.campaign import SERVICE_FIELDS
        from repro.orchestrate.spec import RUN_FIELDS

        assert set(SERVICE_FIELDS).isdisjoint(RUN_FIELDS)

    def test_document_service_fields_do_not_change_keys(self):
        """The same campaign document with and without service fields
        expands to specs with identical content keys."""
        from repro.orchestrate.campaign import parse_campaign

        doc = {
            "name": "svc",
            "defaults": {
                "dims": "4x4", "protocol": "clrp", "seed": 7,
                "workload": {"kind": "uniform", "load": 0.1,
                             "length": 16, "duration": 300},
            },
            "grid": {"workload.load": [0.1, 0.2]},
        }
        _, plain = parse_campaign(doc)
        _, dressed = parse_campaign(
            {**doc, "tenant": "alice", "priority": 42}
        )
        assert [s.key() for s in plain] == [s.key() for s in dressed]


class TestSpecValidation:
    def test_bad_max_cycles(self):
        with pytest.raises(ConfigError):
            clrp_spec(max_cycles=0)

    def test_bad_fault_fraction(self):
        with pytest.raises(ConfigError):
            clrp_spec(fault_fraction=1.0)


class TestBuildWorkload:
    def test_uniform_deterministic(self):
        spec = clrp_spec()
        topo = build_topology("mesh", (4, 4))
        first = build_workload(spec, topo)
        second = build_workload(spec, topo)
        assert [
            (m.msg_id, m.src, m.dst, m.length, m.created) for m in first
        ] == [(m.msg_id, m.src, m.dst, m.length, m.created) for m in second]
        assert first, "tiny uniform workload should produce messages"

    def test_unknown_recipe_kind(self):
        spec = JobSpec(
            config=NetworkConfig(dims=(4, 4)),
            workload=WorkloadRecipe.make("no_such_kind"),
        )
        with pytest.raises(ConfigError, match="unknown workload recipe"):
            build_workload(spec, build_topology("mesh", (4, 4)))

    def test_explicit_rebuilds_bit_identical_messages(self):
        spec = clrp_spec()
        topo = build_topology("mesh", (4, 4))
        original = build_workload(spec, topo)
        explicit = materialize_spec(spec.config, original)
        rebuilt = build_workload(explicit, topo)
        assert [
            (m.msg_id, m.src, m.dst, m.length, m.created, m.circuit_hint)
            for m in rebuilt
        ] == [
            (m.msg_id, m.src, m.dst, m.length, m.created, m.circuit_hint)
            for m in original
        ]

    def test_explicit_survives_json_round_trip(self):
        spec = clrp_spec()
        topo = build_topology("mesh", (4, 4))
        explicit = materialize_spec(spec.config, build_workload(spec, topo))
        again = JobSpec.from_dict(explicit.to_dict())
        assert again.key() == explicit.key()
        assert [
            (m.msg_id, m.created) for m in build_workload(again, topo)
        ] == [(m.msg_id, m.created) for m in build_workload(explicit, topo)]

    def test_explicit_rejects_non_messages(self):
        with pytest.raises(ConfigError, match="plain messages"):
            explicit_recipe([object()])

    def test_stencil_recipe_builds(self):
        spec = JobSpec(
            config=NetworkConfig(dims=(4, 4)),
            workload=WorkloadRecipe.make(
                "stencil", phases=2, phase_gap=100, length=8
            ),
        )
        items = build_workload(spec, build_topology("mesh", (4, 4)))
        # 4x4 mesh: 2 phases x sum of node degrees (2*24 directed links)
        assert len(items) == 2 * 48


class TestFaultAndReliabilityFields:
    def test_defaults_omitted_from_dict(self):
        """Disabled fields must vanish from to_dict so pre-existing
        stored results keep their content-hash keys."""
        data = clrp_spec().to_dict()
        assert "mtbf" not in data
        assert "mttr" not in data
        assert "reliability" not in data["config"]

    def test_mtbf_round_trip(self):
        spec = clrp_spec(mtbf=1500, mttr=700)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.mtbf == 1500 and again.mttr == 700

    def test_reliability_round_trip(self):
        from repro.sim.config import ReliabilityConfig

        config = NetworkConfig(
            dims=(4, 4), protocol="clrp",
            reliability=ReliabilityConfig(timeout=99, max_retries=3),
        )
        spec = JobSpec(
            config=config,
            workload=WorkloadRecipe.make(
                "uniform", load=0.1, length=16, duration=300
            ),
        )
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.config.reliability.timeout == 99

    def test_mtbf_changes_key(self):
        assert clrp_spec().key() != clrp_spec(mtbf=1000).key()

    def test_validation(self):
        with pytest.raises(ConfigError):
            clrp_spec(mtbf=-1)
        with pytest.raises(ConfigError):
            clrp_spec(mttr=-1)

    def test_json_round_trip_with_faults(self):
        import json

        spec = clrp_spec(mtbf=800, mttr=200)
        data = json.loads(json.dumps(spec.to_dict()))
        assert JobSpec.from_dict(data).key() == spec.key()


class TestMetricsEveryField:
    def test_default_omitted_from_dict_and_key_stable(self):
        # Adding the field must not invalidate pre-existing cache keys.
        data = clrp_spec().to_dict()
        assert "metrics_every" not in data
        assert clrp_spec().key() == clrp_spec(metrics_every=0).key()

    def test_round_trip(self):
        spec = clrp_spec(metrics_every=250)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.metrics_every == 250

    def test_changes_key_when_enabled(self):
        assert clrp_spec().key() != clrp_spec(metrics_every=100).key()

    def test_validation(self):
        with pytest.raises(ConfigError):
            clrp_spec(metrics_every=-1)

    def test_sampled_job_carries_observe_summary(self):
        from repro.orchestrate.runner import execute_job

        metrics = execute_job(clrp_spec(metrics_every=50))
        observe = metrics["observe"]
        assert observe["every"] == 50
        assert observe["samples"] >= 1
        assert "messages.outstanding" in observe["series"]

    def test_unsampled_job_has_no_observe_block(self):
        from repro.orchestrate.runner import execute_job

        assert "observe" not in execute_job(clrp_spec())

    def test_sampling_does_not_change_results(self):
        from repro.orchestrate.runner import execute_job

        plain = execute_job(clrp_spec())
        sampled = execute_job(clrp_spec(metrics_every=50))
        sampled.pop("observe")
        assert sampled == plain


class TestPrepareThenRun:
    """execute_job is prepare_job + PreparedJob.run, nothing else."""

    def test_the_split_is_the_whole(self):
        from repro.orchestrate import execute_job, prepare_job

        spec = clrp_spec(
            mtbf=300, mttr=100, fault_fraction=0.05, max_cycles=40_000,
            deadlock_check_interval=64, metrics_every=50,
            invariants_every=16,
        )
        job = prepare_job(spec)
        assert job.faults is not None and job.network.faults is job.faults
        assert job.sampler is not None and job.harness is not None
        metrics = job.metrics(job.run())
        assert metrics == execute_job(spec)
        assert metrics["counters"]["fault.links_killed"] > 0
        assert metrics["invariants"]["checks"] > 0
        assert metrics["observe"]["samples"] > 0

    def test_explicit_schedule_refuses_a_spec_with_mtbf(self):
        from repro.orchestrate import prepare_job
        from repro.topology import FaultSchedule

        schedule = FaultSchedule(build_topology("mesh", (4, 4)))
        schedule.schedule_kill(40, 5, 0)
        with pytest.raises(ConfigError, match="mutually exclusive"):
            prepare_job(clrp_spec(mtbf=300), faults=schedule)
        job = prepare_job(clrp_spec(fault_fraction=0.05), faults=schedule)
        assert job.faults is schedule
