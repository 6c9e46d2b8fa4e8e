"""Tests for the command-line front-end."""

import json
from pathlib import Path

import pytest

from repro.cli import entry_from_args, main, make_parser
from repro.errors import ConfigError
from repro.orchestrate import parse_dims, prepare_job, spec_from_entry
from repro.observe import read_metrics_jsonl, validate_chrome_trace


class TestParseDims:
    def test_basic(self):
        assert parse_dims("8x8") == (8, 8)
        assert parse_dims("2x2x2") == (2, 2, 2)
        assert parse_dims("4X4") == (4, 4)

    def test_list(self):
        assert parse_dims([4, 4]) == (4, 4)

    def test_bad(self):
        with pytest.raises(ConfigError):
            parse_dims("8by8")


class TestRun:
    def test_run_clrp(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--protocol", "clrp",
            "--load", "0.1", "--length", "16", "--duration", "400",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "4x4 mesh" in out
        assert "delivered" in out
        assert "mean" in out

    def test_run_wormhole_baseline(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--protocol", "wormhole",
            "--load", "0.1", "--length", "16", "--duration", "400",
        ])
        assert code == 0
        assert "wormhole" in capsys.readouterr().out

    def test_run_carp_compiles(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--protocol", "carp",
            "--pattern", "neighbor",
            "--load", "0.15", "--length", "16", "--duration", "600",
        ])
        assert code == 0

    def test_run_torus_needs_vcs(self, capsys):
        code = main([
            "run", "--topology", "torus", "--dims", "4x4", "--vcs", "1",
            "--protocol", "wormhole",
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_run_with_monitors(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--load", "0.1", "--length", "8",
            "--duration", "300", "--deadlock-check", "50",
            "--progress-timeout", "10000",
        ])
        assert code == 0


class TestSweep:
    def test_sweep_two_points(self, capsys):
        code = main([
            "sweep", "--dims", "4x4", "--protocol", "wormhole",
            "--loads", "0.05,0.1", "--length", "16", "--duration", "500",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "offered load" in out
        assert out.count("load 0.0") >= 1

    def test_sweep_parallel_jobs_flag(self, capsys):
        code = main([
            "sweep", "--dims", "4x4", "--protocol", "wormhole",
            "--loads", "0.05,0.1", "--length", "16", "--duration", "400",
            "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "offered load" in out

    def test_sweep_serial_parallel_identical_output(self, capsys):
        argv = [
            "sweep", "--dims", "4x4", "--protocol", "clrp",
            "--loads", "0.05,0.1", "--length", "16", "--duration", "400",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_sweep_throughput_uses_run_experiment_window(self, capsys):
        """The reported throughput must follow run_experiment methodology.

        The old window cut at ``duration``: messages still draining after
        the injection window were silently excluded from accepted
        throughput.  The aligned window runs from ``duration // 5`` to the
        last delivery, exactly like ``run_experiment(warmup=duration//5)``.
        """
        argv = [
            "sweep", "--dims", "4x4", "--protocol", "wormhole",
            "--loads", "0.3", "--length", "32", "--duration", "300",
        ]
        args = make_parser().parse_args(argv)
        spec = spec_from_entry(entry_from_args(args, load=0.3))
        assert spec.warmup == args.duration // 5
        expected = prepare_job(spec).run()
        # Sanity: the run must actually drain past the injection window,
        # otherwise this test wouldn't exercise the fix.
        last_delivery = max(
            m.delivered for m in expected.sim.stats.delivered_records()
        )
        assert last_delivery > args.duration
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"load 0.3: throughput {expected.throughput:.3f}" in out


    def test_min_accepted_throughput_is_per_endpoint(self, capsys):
        """Offered load is per terminal; accepted used to be divided by
        terminals + switches (20 nodes on a 2-ary 3-fly, 8 endpoints)
        and read 0.044 for a drained 0.1 run."""
        argv = [
            "sweep", "--topology", "min", "--dims", "2x2x2", "--protocol",
            "wormhole", "--loads", "0.1", "--duration", "500", "--length", "8",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "56/56" in out
        accepted = float(out.split("load 0.1: throughput ")[1].split()[0])
        assert abs(accepted - 0.1) <= 0.02


class TestCompare:
    def test_compare_all_protocols(self, capsys):
        code = main([
            "compare", "--dims", "4x4", "--load", "0.1",
            "--length", "16", "--duration", "400",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("wormhole", "clrp", "carp"):
            assert name in out


class TestVariantsFlag:
    def test_clrp_variant_accepted(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--clrp-variant", "immediate_force",
            "--load", "0.1", "--length", "16", "--duration", "300",
        ])
        assert code == 0


class TestHeatmap:
    def test_heatmap_renders(self, capsys):
        code = main([
            "heatmap", "--dims", "4x4", "--load", "0.2",
            "--length", "16", "--duration", "500",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "link load" in out
        assert "deliveries per node" in out
        assert "o" in out


class TestFaultFlag:
    def test_run_with_faults(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--protocol", "clrp",
            "--load", "0.05", "--length", "16", "--duration", "300",
            "--fault-fraction", "0.1",
        ])
        # Some messages may be dropped (undeliverable via S0): both exit
        # codes are legitimate; what matters is it runs and reports.
        assert code in (0, 1)
        assert "machine" in capsys.readouterr().out


class TestDynamicFaultFlags:
    def test_run_with_mtbf(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--protocol", "clrp", "--load", "0.05",
            "--length", "16", "--duration", "500", "--mtbf", "600",
            "--mttr", "300", "--max-cycles", "50000",
        ])
        assert code == 0
        assert "delivered" in capsys.readouterr().out

    def test_run_with_explicit_schedule_and_reliability(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--protocol", "wormhole", "--load",
            "0.05", "--length", "8", "--duration", "300",
            "--fault-schedule", "50:kill:5:0,150:heal:5:0", "--reliable",
            "--max-cycles", "50000",
        ])
        assert code == 0

    def test_mtbf_and_schedule_are_exclusive(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--protocol", "wormhole",
            "--mtbf", "100", "--fault-schedule", "50:kill:5:0",
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_schedule_spec_rejected(self, capsys):
        code = main([
            "run", "--dims", "4x4", "--fault-schedule", "50:explode:5:0",
        ])
        assert code == 2


class TestChaos:
    def test_chaos_smoke_passes(self, capsys):
        code = main([
            "chaos", "--dims", "4x4", "--duration", "300", "--max-cycles",
            "40000", "--mtbf", "500", "--mttr", "250", "--seeds", "0",
            "--protocols", "clrp,wormhole", "--length", "8", "--load", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all runs drained" in out
        assert "clrp#0" in out and "wormhole#0" in out

    def test_chaos_rejects_explicit_schedule(self, capsys):
        code = main([
            "chaos", "--dims", "4x4", "--fault-schedule", "10:kill:0:0",
        ])
        assert code == 2


class TestTrace:
    def test_trace_subcommand_writes_valid_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([
            "trace", "--dims", "4x4", "--load", "0.1",
            "--length", "16", "--duration", "400",
            "--trace-out", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert "event kind" in out  # per-kind census table
        assert "probe_hop" in out
        assert "0 dropped" in out

    def test_trace_with_metrics_dump(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.jsonl"
        code = main([
            "trace", "--dims", "4x4", "--load", "0.1",
            "--length", "16", "--duration", "400",
            "--trace-out", str(trace_path),
            "--metrics-every", "50", "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        registry = read_metrics_jsonl(metrics_path)
        assert "messages.outstanding" in registry.series
        # Counter tracks from the registry ride along in the trace.
        obj = json.loads(trace_path.read_text())
        assert any(ev["ph"] == "C" for ev in obj["traceEvents"])

    def test_trace_limit_drops_oldest(self, tmp_path, capsys):
        code = main([
            "trace", "--dims", "4x4", "--load", "0.2",
            "--length", "16", "--duration", "600",
            "--trace-limit", "32",
            "--trace-out", str(tmp_path / "t.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "raise --trace-limit" in out

    def test_run_accepts_trace_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "run-trace.json"
        code = main([
            "run", "--dims", "4x4", "--load", "0.1",
            "--length", "16", "--duration", "300",
            "--trace", "--trace-out", str(trace_path),
        ])
        assert code == 0
        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert "trace:" in capsys.readouterr().out

    def test_run_without_trace_writes_nothing(self, tmp_path, capsys):
        code = main([
            "run", "--dims", "4x4", "--load", "0.1",
            "--length", "16", "--duration", "300",
            "--trace-out", str(tmp_path / "never.json"),
        ])
        assert code == 0
        assert not (tmp_path / "never.json").exists()

    def test_metrics_out_requires_cadence(self, tmp_path, capsys):
        code = main([
            "run", "--dims", "4x4", "--duration", "300",
            "--metrics-out", str(tmp_path / "m.jsonl"),
        ])
        assert code == 2
        assert "--metrics-every" in capsys.readouterr().err


class TestMetricsEveryFlag:
    def test_sweep_carries_metrics_every_into_store(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        code = main([
            "sweep", "--dims", "4x4", "--protocol", "wormhole",
            "--loads", "0.05", "--length", "16", "--duration", "400",
            "--metrics-every", "100", "--store", str(store),
        ])
        assert code == 0
        rows = [json.loads(line) for line in store.read_text().splitlines()]
        observe = rows[0]["metrics"]["observe"]
        assert observe["every"] == 100
        assert observe["samples"] >= 1
        assert "messages.outstanding" in observe["series"]

    def test_verbose_flag_parses(self, capsys):
        code = main([
            "-v", "run", "--dims", "4x4", "--load", "0.1",
            "--length", "16", "--duration", "300",
        ])
        assert code == 0


class TestVerifyCdg:
    def test_single_config_deadlock_free(self, capsys):
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "torus", "--dims", "4x4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "acyclic" in out
        assert "1/1 configurations deadlock-free" in out

    def test_all_shipped_configs_pass(self, capsys):
        """The whole report, byte for byte, graph sizes and replay counts
        included: the golden was written by the per-pair replay and the
        walker without an expansion cache, so a speed-up of either must
        leave it alone.  Never regenerate it to make a change pass."""
        golden = Path(__file__).parent / "corpus" / "verify_cdg_all.txt"
        code = main(["verify-cdg", "--all"])
        assert code == 0
        out = capsys.readouterr().out
        assert "11/11 configurations deadlock-free" in out
        assert out == golden.read_text()

    def test_cyclic_config_flagged(self, capsys):
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "torus", "--dims", "4x4",
            "--assume-classes", "1",
        ])
        assert code == 1
        assert "CYCLE" in capsys.readouterr().out

    def test_expect_cyclic_inverts_verdict(self, capsys):
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "torus", "--dims", "4x4",
            "--assume-classes", "1", "--expect-cyclic",
        ])
        assert code == 0
        assert "cyclic as expected" in capsys.readouterr().out

    def test_all_expect_cyclic_exits_nonzero(self, capsys):
        # Shipped configs are all deadlock-free, so --expect-cyclic must
        # turn the run red: the exit path CI relies on to catch a
        # green-washed analyzer.
        code = main(["verify-cdg", "--all", "--expect-cyclic"])
        assert code == 1
        assert "0/11" in capsys.readouterr().out

    def test_every_report_names_its_rung_and_engine(self, capsys):
        code = main(["verify-cdg", "--all"])
        assert code == 0
        out = capsys.readouterr().out
        assert "11/11 configurations deadlock-free" in out
        assert "rung 1 (acyclicity) [native]: DEADLOCK-FREE" in out
        assert "rung 1 (escape) [native]: DEADLOCK-FREE" in out

    def test_subrelation_rung_resolves_over_approximation(self, capsys):
        # Dateline-free 4-ring with adaptive routing: the designated
        # escape graph is cyclic, the subrelation proof certifies free --
        # the one path must print both and exit 0, not raise a false
        # alarm.
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "torus", "--dims", "4",
            "--routing", "adaptive", "--vcs", "3",
            "--assume-classes", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "CYCLE" in out
        assert "rung 2 (subrelation)" in out
        assert "over-approximat" in out
        assert "1/1 configurations deadlock-free" in out

    def test_family_exhausted_expect_cyclic(self, tmp_path, capsys):
        # A dateline-free adaptive 6-ring: the whole family is refuted,
        # family-relative, and the emitted certificate replays clean.
        certs = tmp_path / "certs"
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "torus", "--dims", "6",
            "--routing", "adaptive", "--vcs", "3",
            "--assume-classes", "1", "--expect-cyclic",
            "--emit-certificates", str(certs),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rung 3 (refuted) [native]: REJECTED (inconclusive)" in out
        assert "cyclic as expected" in out
        assert main(["verify-cdg", "--check-certificates", str(certs)]) == 0
        assert "1/1 certificates replayed clean" in capsys.readouterr().out

    def test_drifted_discipline_fails_a_proved_config(
        self, capsys, monkeypatch
    ):
        # The analyzer's escape discipline drifts from the runtime's
        # (classes inverted): the graph is isomorphic, so rung 1 still
        # proves it acyclic -- the separation leg must fail the config
        # anyway.
        from repro.verify.cdg import EscapeSubfunction

        real = EscapeSubfunction.options

        def inverted(self, node, dst, bits):
            return tuple(
                (port, self.num_classes - 1 - cls)
                for port, cls in real(self, node, dst, bits)
            )

        monkeypatch.setattr(EscapeSubfunction, "options", inverted)
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "torus", "--dims", "4x4",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "rung 1 (acyclicity) [native]: DEADLOCK-FREE" in out
        assert "[FAIL] runtime_replay" in out
        assert "0/1 configurations deadlock-free" in out

    def test_takes_only_the_flags_that_shape_the_graph(self, capsys):
        for flag in ("--backend", "--pattern", "--length", "--duration",
                     "--max-cycles", "--deadlock-check",
                     "--progress-timeout", "--fault-fraction", "--mtbf",
                     "--mttr", "--fault-schedule", "--metrics-every"):
            with pytest.raises(SystemExit) as exc:
                main(["verify-cdg", flag, "1"])
            assert exc.value.code == 2, flag
        with pytest.raises(SystemExit):
            main(["verify-cdg", "--reliable"])
        with pytest.raises(SystemExit):
            main(["verify-cdg", "--engine", "auto"])
        capsys.readouterr()
        # The wave parameters build_config needs still parse.
        code = main([
            "verify-cdg", "--dims", "4x4", "--wave-switches", "3",
            "--misroute-budget", "1",
        ])
        assert code == 0
        assert "3 wave switch(es)" in capsys.readouterr().out

    def test_emit_and_check_certificates(self, tmp_path, capsys):
        certs = tmp_path / "certs"
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "mesh", "--dims", "4x4",
            "--emit-certificates", str(certs),
        ])
        assert code == 0
        files = list(certs.glob("*.json"))
        assert len(files) == 1
        capsys.readouterr()
        code = main(["verify-cdg", "--check-certificates", str(certs)])
        assert code == 0
        assert "1/1 certificates replayed clean" in capsys.readouterr().out

    def test_check_certificates_flags_tampering(self, tmp_path, capsys):
        certs = tmp_path / "certs"
        main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "mesh", "--dims", "4x4",
            "--emit-certificates", str(certs),
        ])
        path = next(certs.glob("*.json"))
        cert = json.loads(path.read_text(encoding="utf-8"))
        cert["graph"]["sha256"] = "0" * 64
        path.write_text(json.dumps(cert), encoding="utf-8")
        capsys.readouterr()
        code = main(["verify-cdg", "--check-certificates", str(certs)])
        assert code == 1
        assert "drift" in capsys.readouterr().out

    def test_committed_certificates_replay_via_cli(self, capsys):
        code = main([
            "verify-cdg", "--check-certificates",
            str(Path(__file__).parent / "corpus" / "certificates"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "certificates replayed clean" in out

    def test_seed_fuzzer_declines_counterfactual_rejection(
        self, tmp_path, capsys
    ):
        # Config validation enforces the VC floors, so every *runnable*
        # config is provable -- the only CLI-reachable rejections are
        # counterfactual (--assume-classes), which must NOT be seeded:
        # the runtime does not implement the analysed discipline.  (The
        # API path, rejection_jobspecs/dump_rejection_specs, is covered
        # in tests/verify/test_smt.py.)
        seeds = tmp_path / "seeds"
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "torus", "--dims", "4x4",
            "--assume-classes", "1", "--seed-fuzzer", str(seeds),
        ])
        assert code == 1
        assert "not seeding" in capsys.readouterr().out
        assert not list(seeds.glob("*.json")) if seeds.exists() else True

    def test_assume_classes_above_pinned_exits_config_error(self, capsys):
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "fullmesh", "--dims", "8",
            "--assume-classes", "2",
        ])
        assert code == 2
        assert "pins" in capsys.readouterr().err

    def test_engine_z3_without_z3_exits_config_error(self, capsys):
        from repro.verify import smt

        if smt._z3 is not None:
            pytest.skip("z3 installed; the cross-check runs instead")
        code = main([
            "verify-cdg", "--protocol", "wormhole",
            "--topology", "mesh", "--dims", "4x4", "--engine", "z3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "z3-solver is not installed" in err
        assert len(err.strip().splitlines()) == 1


class TestFuzzCommand:
    def test_smoke_budget_passes_and_caches(self, tmp_path, capsys):
        store = tmp_path / "fuzz.jsonl"
        argv = ["fuzz", "--budget", "2", "--seed", "0",
                "--store", str(store)]
        assert main(argv) == 0
        assert "2/2 scenarios passed" in capsys.readouterr().out
        assert main(argv) == 0
        assert "(2 cached)" in capsys.readouterr().out

    def test_replay_corpus_reproducer(self, capsys):
        corpus = Path(__file__).resolve().parent / "corpus"
        code = main([
            "fuzz", "--replay", str(corpus / "clrp_phase_budget.json"),
        ])
        assert code == 0
        assert "replay passed" in capsys.readouterr().out

    def test_failures_dump_reproducers(self, tmp_path, capsys, monkeypatch):
        # Re-introduce the CLRP phase-budget bug; the campaign must fail,
        # write a replayable reproducer, and the reproducer must replay
        # with the same failure.
        from repro.core.clrp import CLRPEngine

        orig = CLRPEngine._open_entry

        def buggy(self, msg, cycle):
            orig(self, msg, cycle)
            entry = self.cache.lookup(msg.dst)
            if entry is not None:
                entry.switches_tried = 0

        monkeypatch.setattr(CLRPEngine, "_open_entry", buggy)
        out_dir = tmp_path / "findings"
        code = main([
            "fuzz", "--budget", "6", "--seed", "0", "--no-shrink",
            "--out", str(out_dir),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "ProtocolError" in out
        dumps = sorted(out_dir.glob("*.json"))
        assert dumps
        assert main(["fuzz", "--replay", str(dumps[0])]) == 1
        assert "replay failed: ProtocolError" in capsys.readouterr().out
