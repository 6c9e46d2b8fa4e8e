"""Tests for the proof ladder and its certificates.

Covers the agreement between the separation-leg analyzer and the ladder
on every shipped config, the union-graph over-approximation being
resolved for adaptive configs, certificate round-trip and tamper
rejection, solver-free replay, and the z3 cross-check when installed
(skipped cleanly otherwise: the native engine decides every verdict).
"""

import copy
import json
from types import SimpleNamespace

import pytest

from repro.cli import _shipped_verify_configs
from repro.errors import ConfigError
from repro.sim.config import NetworkConfig, WormholeConfig
from repro.errors import ReproError
from repro.verify import smt
from repro.verify.cdg import (
    EscapeSubfunction,
    FullRelation,
    analyze_config,
    config_topology,
    walk_dependencies,
)
from repro.verify.smt import (
    certificate_slug,
    check_certificate,
    check_certificate_files,
    dump_certificate,
    format_report,
    graph_fingerprint,
    load_certificate,
    rejection_jobspecs,
    solve_ranks,
    solve_ranks_native,
)
from repro.wormhole.routing import make_routing

# The optional z3 cross-check backend: a skip guard for the z3-only tests.
HAVE_Z3 = smt._z3 is not None


def verify_config(*args, **kwargs):
    """Every verdict this file asks for must replay its own certificate."""
    report = smt.verify_config(*args, **kwargs)
    check = check_certificate(report.certificate)
    assert check.ok, check.errors
    return report


def _wormhole(topology, dims, routing="dor", vcs=2):
    return NetworkConfig(
        topology=topology, dims=dims, protocol="wormhole", wave=None,
        wormhole=WormholeConfig(vcs=vcs, routing=routing),
    )


def shipped_ids():
    return [c.describe() for c in _shipped_verify_configs()]


class TestLegsAgreeOnShipped:
    """The separation leg and the ladder agree on all 11 shipped configs."""

    @pytest.mark.parametrize(
        "config", _shipped_verify_configs(), ids=shipped_ids()
    )
    def test_native_agrees_with_search(self, config):
        search = analyze_config(config)
        smt = verify_config(config, engine="native")
        # Shipped configs are all deadlock-free, and all at rung 1: the
        # designated graph the separation leg reports acyclic is the one
        # the ladder ranks.
        assert search.ok
        assert smt.deadlock_free and smt.conclusive
        assert smt.rung == 1 and not smt.cycle
        assert check_certificate(smt.certificate).ok

    @pytest.mark.parametrize(
        "config", _shipped_verify_configs(), ids=shipped_ids()
    )
    @pytest.mark.skipif(not HAVE_Z3, reason="z3-solver not installed")
    def test_z3_agrees_with_native(self, config):
        native = verify_config(config, engine="native")
        z3r = verify_config(config, engine="z3")
        assert native.deadlock_free == z3r.deadlock_free
        assert native.method == z3r.method
        assert z3r.engine.startswith("z3-")
        # z3's rank model differs numerically but must replay the same.
        assert check_certificate(z3r.certificate).ok

    def test_negative_case_dateline_free_torus(self):
        # The documented negative: torus DOR without dateline classes is
        # cyclic -- both legs must refute it, conclusively.
        config = _wormhole("torus", (4, 4))
        search = analyze_config(config, assume_classes=1)
        smt = verify_config(config, assume_classes=1, engine="native")
        assert not search.acyclic
        assert not smt.deadlock_free and smt.conclusive
        assert smt.method == "refuted" and smt.rung == 3
        assert smt.cycle == search.cycle
        assert check_certificate(smt.certificate).ok

    @pytest.mark.skipif(not HAVE_Z3, reason="z3-solver not installed")
    def test_z3_refutes_negative_case_too(self):
        config = _wormhole("torus", (4, 4))
        smt = verify_config(config, assume_classes=1, engine="z3")
        assert not smt.deadlock_free and smt.conclusive


class TestOverApproximationResolved:
    """Acceptance: search says cyclic, the exact prover certifies free."""

    def test_shipped_adaptive_union_graphs_are_cyclic(self):
        # The naive union graph (what a plain loop search operates on)
        # is cyclic for both shipped adaptive configs...
        for topology in ("mesh", "torus"):
            config = _wormhole(topology, (4, 4), routing="adaptive", vcs=3)
            topo = config_topology(config)
            routing = make_routing("adaptive", topo, 3)
            union, _ = walk_dependencies(
                routing, FullRelation(routing, routing.num_classes)
            )
            assert solve_ranks_native(union) is None, topology
            # ...yet the escape-subfunction proof certifies freedom.
            smt = verify_config(config, engine="native")
            assert smt.deadlock_free and smt.union_cyclic
            assert smt.method == "escape"

    def test_ring_split_subrelation_beats_escape_search(self):
        # Dateline-free 4-ring with adaptive routing: the analyzer's own
        # extended escape-channel search finds a cycle (the DOR escape
        # chains plus links around the ring), but the ring-split
        # subfunction is connected with an acyclic extended graph, so
        # Duato's theorem proves the config deadlock-free -- the genuine
        # "designated graph cyclic, config free" case rung 2 exists for.
        config = _wormhole("torus", (4,), routing="adaptive", vcs=3)
        search = analyze_config(config, assume_classes=1)
        assert not search.acyclic
        smt = verify_config(config, assume_classes=1, engine="native")
        assert smt.deadlock_free and smt.conclusive
        assert smt.method == "subrelation" and smt.rung == 2
        assert smt.subfunction == "ring-split-dor"
        # The report keeps the cycle that failed rung 1, and says where.
        assert smt.cycle == search.cycle
        assert smt.cycle_graph == "escape-dor"
        out = format_report(smt)
        assert "CYCLE of 4 channels in the 'escape-dor' graph" in out
        assert "rung 2 (subrelation) [native]: DEADLOCK-FREE" in out
        assert check_certificate(smt.certificate).ok

    def test_escape_subfunction_is_connected(self):
        config = _wormhole("torus", (4, 4), routing="adaptive", vcs=3)
        topo = config_topology(config)
        routing = make_routing("adaptive", topo, 3)
        sub = EscapeSubfunction(routing, routing.num_classes)
        _edges, connected = walk_dependencies(routing, sub)
        assert connected

    @pytest.mark.parametrize("dims", [(5,), (6,), (7,), (5, 4)], ids=str)
    def test_family_exhausted_witness_replays_in_its_own_graph(self, dims):
        # Dateline-free adaptive rings the whole family rejects.  The
        # witness is a cycle of the escape discipline's *extended* graph,
        # so that is the graph the certificate must name, fingerprint
        # and replay -- not the union graph, where the chained
        # dependency 4:0:0 -> 0:0:0 of the 6-ring does not exist.
        config = _wormhole("torus", dims, routing="adaptive", vcs=3)
        smt = verify_config(config, assume_classes=1)
        assert not smt.deadlock_free and not smt.conclusive
        assert smt.rung == 3 and smt.union_cyclic
        cert = smt.certificate
        assert cert["subfunction"] == smt.cycle_graph == "escape-dor"
        routing = make_routing("adaptive", config_topology(config), 3)
        escape, _ = walk_dependencies(routing, EscapeSubfunction(routing, 1))
        assert cert["graph"] == graph_fingerprint(escape)
        assert check_certificate(cert).ok
        # Naming another graph must fail the replay, not be ignored.
        wrong = dict(cert, subfunction="union")
        assert not check_certificate(wrong).ok


class TestCertificates:
    def test_roundtrip_via_file(self, tmp_path):
        config = _wormhole("mesh", (4, 4))
        smt = verify_config(config, engine="native")
        path = dump_certificate(
            smt.certificate, tmp_path / f"{certificate_slug(config)}.json"
        )
        cert = load_certificate(path)
        assert cert == smt.certificate
        assert check_certificate(cert).ok

    def test_tampered_rank_rejected(self):
        smt = verify_config(_wormhole("mesh", (4, 4)), engine="native")
        cert = copy.deepcopy(smt.certificate)
        key = next(iter(cert["ranks"]))
        cert["ranks"][key] += 1000
        check = check_certificate(cert)
        assert not check.ok
        assert any("!<" in e for e in check.errors)

    def test_tampered_graph_hash_rejected(self):
        smt = verify_config(_wormhole("mesh", (4, 4)), engine="native")
        cert = copy.deepcopy(smt.certificate)
        cert["graph"]["sha256"] = "0" * 64
        check = check_certificate(cert)
        assert not check.ok
        assert any("drift" in e for e in check.errors)

    def test_tampered_cycle_rejected(self):
        smt = verify_config(
            _wormhole("torus", (4, 4)), assume_classes=1, engine="native"
        )
        cert = copy.deepcopy(smt.certificate)
        cert["cycle"] = cert["cycle"][:-1]  # no longer a closed chain
        check = check_certificate(cert)
        assert not check.ok

    def test_unknown_format_rejected(self):
        assert not check_certificate({"format": "bogus/9"}).ok

    def test_batch_file_check(self, tmp_path):
        good = verify_config(_wormhole("mesh", (4, 4)), engine="native")
        dump_certificate(good.certificate, tmp_path / "good.json")
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        results = dict(
            (p.name, c) for p, c in check_certificate_files(
                sorted(tmp_path.glob("*.json"))
            )
        )
        assert not results["bad.json"].ok
        assert results["good.json"].ok

    def test_committed_certificates_replay(self):
        # The repo ships one certificate per shipped config; all must
        # replay clean against the current code, without a solver.
        from pathlib import Path

        cert_dir = Path(__file__).parent.parent / "corpus" / "certificates"
        paths = sorted(cert_dir.glob("*.json"))
        assert len(paths) >= 11, "missing committed certificates"
        for path, check in check_certificate_files(paths):
            assert check.ok, (path.name, check.errors)

    def test_certificate_is_json_serialisable(self):
        smt = verify_config(
            _wormhole("torus", (4,), routing="adaptive", vcs=3),
            assume_classes=1, engine="native",
        )
        blob = json.dumps(smt.certificate)
        assert check_certificate(json.loads(blob)).ok


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown SMT engine"):
            verify_config(_wormhole("mesh", (4, 4)), engine="cvc5")

    @pytest.mark.skipif(HAVE_Z3, reason="only meaningful without z3")
    def test_z3_engine_degrades_with_clear_error(self):
        with pytest.raises(ConfigError, match="z3-solver is not installed"):
            verify_config(_wormhole("mesh", (4, 4)), engine="z3")

    def test_default_engine_is_native_whatever_is_installed(self):
        smt = verify_config(_wormhole("mesh", (4, 4)))
        assert smt.engine == "native"
        assert smt.certificate["engine"] == "native"
        assert smt.deadlock_free
        with pytest.raises(ConfigError, match="unknown SMT engine"):
            verify_config(_wormhole("mesh", (4, 4)), engine="auto")

    def test_z3_is_a_cross_check_that_must_agree(self, monkeypatch):
        # Stand-in solvers: agreement returns the cross-check's model,
        # disagreement is an error -- z3 never overrules the decider.
        acyclic = walk_dependencies(*self._mesh_escape())[0]
        monkeypatch.setattr(
            smt, "_z3", SimpleNamespace(get_version_string=lambda: "stub")
        )
        monkeypatch.setattr(smt, "solve_ranks_z3", solve_ranks_native)
        ranks, engine = solve_ranks(acyclic, "z3")
        assert engine == "z3-stub" and ranks == solve_ranks_native(acyclic)
        monkeypatch.setattr(smt, "solve_ranks_z3", lambda edges: None)
        with pytest.raises(ReproError, match="disagree"):
            solve_ranks(acyclic, "z3")

    @staticmethod
    def _mesh_escape():
        routing = make_routing(
            "dor", config_topology(_wormhole("mesh", (4, 4))), 2
        )
        return routing, EscapeSubfunction(routing, routing.num_classes)


class TestRejectionSeeding:
    def test_specs_are_replayable_jobspecs(self, tmp_path):
        from repro.orchestrate.spec import JobSpec
        from repro.verify.smt import dump_rejection_specs

        config = _wormhole("torus", (2, 2), vcs=1)
        specs = rejection_jobspecs(config)
        assert len(specs) == 3
        assert len({s.config.seed for s in specs}) == 3
        for spec in specs:
            assert spec.deadlock_check_interval > 0
            assert spec.invariants_every > 0
            # round-trips through the fuzzer's replay format
            assert JobSpec.from_dict(spec.to_dict()) == spec
        paths = dump_rejection_specs(config, tmp_path)
        assert len(paths) == 3
        loaded = [
            JobSpec.from_dict(json.loads(p.read_text(encoding="utf-8")))
            for p in paths
        ]
        assert sorted(s.key() for s in loaded) == sorted(
            s.key() for s in specs
        )
