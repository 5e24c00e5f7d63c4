"""CLI surface: every subcommand and failure mode."""

import pytest

from repro.cli import main as cli_main
from repro.experiments import REGISTRY


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["experiment", "e99"])

    def test_unknown_routing_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "--routing", "banana"])


class TestListCommand:
    def test_lists_every_registered_experiment(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in REGISTRY:
            assert exp_id in out

    def test_every_experiment_shows_its_description(self, capsys):
        """Users discover scenarios from the list itself: every entry
        carries the one-line description from its module docstring."""
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id, module in REGISTRY.items():
            first_line = (module.__doc__ or "").strip().splitlines()[0]
            assert first_line, f"{exp_id} has no module docstring"
            assert first_line in out


class TestRunCommand:
    def test_mesh_topology(self, capsys):
        code = cli_main(
            [
                "run", "--routing", "turn", "--topology", "mesh",
                "--radix", "4", "--load", "0.1",
                "--warmup", "50", "--measure", "200", "--drain", "1500",
                "--message-length", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4-ary 2-mesh" in out

    def test_fcr_with_faults(self, capsys):
        code = cli_main(
            [
                "run", "--routing", "fcr", "--radix", "4",
                "--fault-rate", "0.001", "--load", "0.08",
                "--warmup", "50", "--measure", "200", "--drain", "4000",
                "--message-length", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency_mean" in out
        assert "fcr on 4-ary 2-torus" in out

    def test_fast_engine_matches_reference(self, capsys):
        args = [
            "run", "--routing", "cr", "--radix", "4",
            "--load", "0.2", "--warmup", "50", "--measure", "200",
            "--drain", "1500", "--message-length", "8",
        ]
        outputs = []
        for engine in ("reference", "fast"):
            from repro.network.message import reset_uid_counter

            reset_uid_counter()
            assert cli_main(args + ["--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        # Flit-identical engines print flit-identical reports.
        assert outputs[0] == outputs[1]
        assert "latency_mean" in outputs[0]

    def test_profile_prints_hotspot_table(self, capsys):
        code = cli_main(
            [
                "run", "--routing", "cr", "--radix", "4",
                "--load", "0.2", "--warmup", "50", "--measure", "200",
                "--drain", "1500", "--message-length", "8",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine phase hotspots" in out
        assert "routing" in out and "switch" in out


class TestSweepCommand:
    ARGS = [
        "sweep", "--routing", "dor", "--radix", "4",
        "--loads", "0.1,0.15", "--warmup", "50", "--measure", "200",
        "--drain", "1500", "--message-length", "8",
    ]

    def test_parallel_no_cache_smoke(self, capsys):
        code = cli_main(self.ARGS + ["--workers", "2", "--no-cache"])
        assert code == 0
        captured = capsys.readouterr()
        assert "dor load sweep" in captured.out
        assert "[2/2]" in captured.err  # per-point progress on stderr

    def test_cache_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli_main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        first = capsys.readouterr()
        assert cli_main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        second = capsys.readouterr()
        assert "2 hit(s)" in second.err
        # cached rows render the same table
        assert second.out == first.out


class TestTraceCommand:
    ARGS = [
        "trace", "--routing", "cr", "--radix", "4", "--cycles", "400",
        "--message-length", "8", "--load", "0.3", "--seed", "5",
    ]

    def test_flags_mode_writes_parsable_artifacts(self, tmp_path, capsys):
        import json

        from repro import read_jsonl

        jsonl = str(tmp_path / "run.jsonl")
        perfetto = str(tmp_path / "run.perfetto.json")
        csv_path = str(tmp_path / "series.csv")
        code = cli_main(self.ARGS + [
            "--jsonl", jsonl, "--perfetto", perfetto,
            "--sample-interval", "100", "--series-csv", csv_path,
            "--events", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "buffer occupancy" in out
        assert "busiest link channels" in out
        assert "last 3 event(s)" in out
        events = read_jsonl(jsonl)
        assert events and all("event" in e for e in events)
        with open(perfetto) as handle:
            assert json.load(handle)["traceEvents"]
        with open(csv_path) as handle:
            assert handle.readline().startswith("index,")

    def test_preset_defaults_artifacts_under_results(
        self, tmp_path, monkeypatch, capsys
    ):
        import json
        import os

        from repro import read_jsonl

        monkeypatch.chdir(tmp_path)
        assert cli_main(["trace", "e01", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "e01 (cr, load 0.3)" in out
        jsonl = os.path.join("results", "traces", "e01.jsonl")
        perfetto = os.path.join("results", "traces", "e01.perfetto.json")
        assert read_jsonl(jsonl)
        with open(perfetto) as handle:
            assert json.load(handle)["traceEvents"]

    def test_unknown_preset_fails_with_choices(self, capsys):
        code = cli_main(["trace", "e99"])
        assert code != 0
        err = capsys.readouterr().err
        assert "fault-matrix" in err

    def test_profile_writes_hotspot_and_prometheus(
        self, tmp_path, capsys
    ):
        from repro.obs import parse_prometheus_text

        hotspot = str(tmp_path / "run.hotspot.md")
        prom = str(tmp_path / "run.prom.txt")
        code = cli_main(self.ARGS + [
            "--profile", "--hotspot", hotspot, "--prom", prom,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine phase hotspots" in out
        with open(hotspot) as handle:
            assert handle.read().startswith("# Engine phase hotspots")
        with open(prom) as handle:
            parsed = parse_prometheus_text(handle.read())
        assert "cr_messages_delivered_total" in parsed

    def test_profile_merges_counter_track_into_perfetto(
        self, tmp_path, capsys
    ):
        import json

        perfetto = str(tmp_path / "run.perfetto.json")
        code = cli_main(self.ARGS + [
            "--profile", "100", "--perfetto", perfetto,
        ])
        assert code == 0
        with open(perfetto) as handle:
            entries = json.load(handle)["traceEvents"]
        assert any(e.get("ph") == "C" for e in entries)

    def test_hotspot_without_profile_exits_2(self, capsys):
        code = cli_main(self.ARGS + ["--hotspot"])
        assert code == 2
        assert "--profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,expected",
        [([], "FastEngine"), (["--engine", "fast"], "FastEngine"),
         (["--engine", "reference"], "Engine")],
    )
    def test_engine_flag_selects_the_engine(
        self, flag, expected, monkeypatch, capsys
    ):
        import repro.obs as obs

        ran = []
        real_run_traced = obs.run_traced

        def spy(config, **kwargs):
            traced = real_run_traced(config, **kwargs)
            ran.append(type(traced.result.engine).__name__)
            return traced

        monkeypatch.setattr(obs, "run_traced", spy)
        assert cli_main(self.ARGS + flag) == 0
        assert ran == [expected]


class TestExperimentCommand:
    def test_cheap_experiment_quick_scale(self, capsys):
        assert cli_main(["experiment", "t01"]) == 0
        out = capsys.readouterr().out
        assert "interface" in out
        assert "fcr" in out

    def test_workers_override_accepted(self, capsys):
        assert cli_main(
            ["experiment", "t01", "--workers", "2", "--no-cache"]
        ) == 0
        assert "interface" in capsys.readouterr().out


class TestVerifyCommand:
    def test_list_shows_presets_and_mutations(self, capsys):
        assert cli_main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out
        assert "credit-loss" in out
        assert "kill-protocol" in out

    def test_clean_preset_passes(self, capsys):
        assert cli_main(["verify", "e01", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "pass   e01" in out
        assert "all invariants hold" in out

    def test_mutated_preset_is_caught(self, capsys):
        assert cli_main(
            ["verify", "e01", "--quick", "--mutation", "credit-loss"]
        ) == 0
        out = capsys.readouterr().out
        assert "CAUGHT e01" in out
        assert "caught in 1/1" in out

    def test_unknown_preset_exits_2(self, capsys):
        assert cli_main(["verify", "e99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "e01" in err

    def test_unknown_mutation_exits_2(self, capsys):
        assert cli_main(["verify", "e01", "--mutation", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown mutation" in err
        assert "credit-loss" in err


class TestUsageExitCodes:
    """Consistency pin: misuse exits 2 with a message on stderr.

    argparse gives unknown flags exit 2 for free; the subcommands that
    validate names themselves (trace/verify presets, campaign names)
    must follow the same convention rather than exiting 1.
    """

    @pytest.mark.parametrize("argv", [
        ["run", "--bogus-flag"],
        ["experiment", "t01", "--bogus-flag"],
        ["trace", "--bogus-flag"],
        ["campaign", "run", "fault-matrix", "--bogus-flag"],
        ["verify", "--bogus-flag"],
    ])
    def test_unknown_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_campaign_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["campaign", "run", "no-such-campaign"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "neither a built-in campaign" in err

    def test_unknown_report_campaign_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "empty.db")
        assert cli_main(
            ["campaign", "report", "missing-a", "missing-b", "--db", db]
        ) == 2
        assert "no stored campaign" in capsys.readouterr().err

    def test_trace_unknown_preset_exits_2(self, capsys):
        assert cli_main(["trace", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "zipf"],
        ["sweep", "--loads", "0.1", "--workload", "zipf"],
        ["trace", "--workload", "zipf"],
        ["campaign", "run", "fault-matrix", "--workload", "zipf"],
    ])
    def test_unknown_workload_exits_2(self, argv, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown workload kind" in err
        assert "mmpp" in err  # the message lists the choices

    def test_malformed_cascade_spec_exits_2(self, capsys):
        assert cli_main(
            ["run", "--cascade-faults", "base_hazard"]
        ) == 2
        assert "key=value" in capsys.readouterr().err
