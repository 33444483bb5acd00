"""Command-line interface."""

import re

import pytest

import repro.cli
from repro.cli import main


def test_usage_text_names_every_subcommand(capsys):
    """The module docstring's ``python -m repro.cli <cmd>`` lines and the
    registered subparsers name the same commands."""
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    usage = capsys.readouterr().out
    registered = set(re.search(r"\{([\w,-]+)\}", usage).group(1).split(","))
    documented = set(re.findall(
        r"^\s*python -m repro\.cli (\S+)", repro.cli.__doc__, re.MULTILINE
    ))
    assert documented == registered


@pytest.mark.slow
class TestCLI:
    def test_table1_runs(self, capsys):
        assert main(["table1", "--die", "250", "--branches", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "PEEC (RLC)" in out

    def test_loop_runs(self, capsys):
        assert main(["loop", "--length", "300"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(b)" in out
        assert "ladder" in out

    def test_export_writes_deck(self, tmp_path, capsys):
        out_file = tmp_path / "net.sp"
        assert main(["export", "--out", str(out_file)]) == 0
        deck = out_file.read_text()
        assert deck.rstrip().endswith(".end")
        assert ".tran" in deck

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_trace_smoke(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "--die", "250", "--json", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "flow.peec" in out
        assert "trace: ok" in out

        import json

        payload = json.loads(out_file.read_text())
        assert payload["open_spans"] == 0
        names = set()
        transients = []
        assemblies = []

        def walk(node):
            names.add(node["name"])
            if node["name"] == "circuit.transient":
                transients.append(node["attrs"])
            if node["name"] == "peec.assembly":
                assemblies.append(node["attrs"])
            for child in node.get("children", []):
                walk(child)

        for root in payload["spans"]:
            walk(root)
        assert {"flow.peec", "peec.assembly", "circuit.transient",
                "circuit.transient.factor"} <= names
        # The transient says how it stepped: one block, re-run step by
        # step only if an (ambient, chaos-mode) fault hit it.
        assert transients
        for attrs in transients:
            assert attrs["path"] == "block"
            assert attrs["product"] in ("dense", "csr")
            assert attrs["rung"] in ("lu", "equilibrated")
            assert attrs["blocks"] == 1
            assert attrs["replayed"] in (0, 1)
        # Every PEEC build of the one layout says how many coupling
        # capacitor pairs its scan found, and they agree.
        assert assemblies
        assert len({attrs["coupling_pairs"] for attrs in assemblies}) == 1
        # The headline metrics are always present, even when zero.
        counters = payload["metrics"]["counters"]
        assert "extraction.cache.misses" in counters
        assert "solver.escalated_solves" in counters

    def test_trace_fails_on_an_untraced_gap(self, monkeypatch, capsys):
        import time

        import repro
        from repro.obs.trace import span

        def gappy_flow(case):
            with span("flow.peec"):
                with span("peec.assembly"):
                    pass
                with span("circuit.transient"):
                    pass
            time.sleep(0.2)  # work no span accounts for

        monkeypatch.setattr(repro, "build_clock_testcase", lambda **kw: None)
        monkeypatch.setattr(repro, "run_peec_flow", gappy_flow)
        assert main(["trace"]) == 1
        out = capsys.readouterr().out
        assert "span coverage below 95%" in out
        assert "trace: FAIL" in out

    def test_run_is_an_alias_of_table1(self, capsys):
        assert main(["run", "--die", "250", "--branches", "2"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_trace_json_wraps_a_command(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "loop_trace.json"
        assert main(["loop", "--length", "300",
                     "--trace-json", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(b)" in out
        assert str(out_file) in out
        payload = json.loads(out_file.read_text())
        assert payload["open_spans"] == 0
        roots = [s["name"] for s in payload["spans"]]
        assert "loop.build" in roots
        assert "loop.sweep" in roots


@pytest.mark.slow
class TestSweepCLI:
    def test_smoke_runs(self, capsys):
        from repro.resilience.faults import inject_faults

        with inject_faults():
            assert main(["sweep", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep -- smoke" in out
        assert "4 ok, 0 failed" in out

    def test_supervision_flags_accepted(self, capsys):
        from repro.resilience.faults import inject_faults

        with inject_faults():
            assert main(["sweep", "--smoke", "--deadline", "30",
                         "--time-budget", "300"]) == 0
        out = capsys.readouterr().out
        assert "0 quarantined" in out

    def test_bad_supervision_env_exits_2(self, capsys, monkeypatch):
        for name, value in (("REPRO_DEADLINE", "soon"),
                            ("REPRO_WORKERS", "abc")):
            with monkeypatch.context() as env:
                env.setenv(name, value)
                assert main(["sweep", "--smoke"]) == 2
            assert name in capsys.readouterr().out

    def test_bad_deadline_flag_exits_2(self, capsys):
        for flags, message in (
            (["--deadline", "-1"], "deadline must be positive"),
            (["--workers", "0"], "worker count must be >= 1"),
        ):
            assert main(["sweep", "--smoke", *flags]) == 2
            assert message in capsys.readouterr().out

    def test_needs_spec_or_smoke(self, capsys):
        assert main(["sweep"]) == 2
        assert "need a spec file or --smoke" in capsys.readouterr().out

    def test_bad_spec_reports_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_spec_file_runs(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "mini",
            "defaults": {"length": 100e-6, "t_stop": 0.6e-9},
            "grid": {"variant": ["baseline", "ground_plane"]},
        }))
        from repro.resilience.faults import inject_faults

        with inject_faults():
            assert main(["sweep", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep -- mini" in out
        assert "2 ok" in out

    def test_sharded_smoke_matches_serial(self, tmp_path, capsys):
        from repro.resilience.faults import inject_faults

        serial_out = tmp_path / "serial.json"
        sharded_out = tmp_path / "sharded.json"
        with inject_faults():
            assert main(["sweep", "--smoke", "--workers", "1",
                         "--out", str(serial_out)]) == 0
            assert main(["sweep", "--smoke", "--workers", "2",
                         "--out", str(sharded_out)]) == 0
        capsys.readouterr()
        assert serial_out.read_bytes() == sharded_out.read_bytes()

    def test_resume_from_store(self, tmp_path, capsys):
        from repro.resilience.faults import inject_faults

        store = tmp_path / "store"
        with inject_faults():
            assert main(["sweep", "--smoke", "--store", str(store)]) == 0
            capsys.readouterr()
            assert main(["sweep", "--smoke", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "4 resumed, 0 computed" in out

    def test_trace_json_wraps_sweep(self, tmp_path, capsys):
        import json

        from repro.resilience.faults import inject_faults

        trace = tmp_path / "sweep_trace.json"
        with inject_faults():
            assert main(["sweep", "--smoke", "--workers", "2",
                         "--trace-json", str(trace)]) == 0
        capsys.readouterr()
        payload = json.loads(trace.read_text())
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node.get("children", []):
                walk(child)

        for root in payload["spans"]:
            walk(root)
        assert {"sweep.scenarios", "supervisor.chunk",
                "sweep.scenario"} <= names
        counters = payload["metrics"]["counters"]
        assert counters.get("sweep.scenarios.ok") == 4
