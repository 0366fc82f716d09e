"""End-to-end tests for the ``awdit`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.histories.formats import load_history, save_history

from helpers import fig_4a, fig_4d


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["check", "h.json", "-i", "rc"])
        assert args.command == "check" and args.isolation == "rc"

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCheckCommand:
    def test_consistent_history_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        save_history(fig_4d(), str(path))
        assert main(["check", str(path), "-i", "cc"]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_inconsistent_history_exits_one_and_prints_witness(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_history(fig_4a(), str(path))
        assert main(["check", str(path), "-i", "rc"]) == 1
        output = capsys.readouterr().out
        assert "VIOLATION" in output
        assert "cycle" in output

    def test_baseline_checker_selectable(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        assert main(["check", str(path), "-i", "cc", "--checker", "plume"]) == 0
        assert "plume" in capsys.readouterr().out

    def test_unknown_checker_exits_two(self, tmp_path):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        assert main(["check", str(path), "--checker", "mystery"]) == 2

    def test_isolation_aliases(self, tmp_path):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        assert main(["check", str(path), "-i", "read atomic"]) == 0

    @pytest.mark.parametrize("engine", ["auto", "compiled", "object"])
    def test_engines_agree_on_verdict_and_witnesses(self, tmp_path, capsys, engine):
        path = tmp_path / "bad.json"
        save_history(fig_4a(), str(path))
        assert main(["check", str(path), "-i", "rc", "--engine", engine]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "cycle" in out


class TestCheckFlagConflicts:
    """Incoherent flag combinations exit 2 instead of silently falling back.

    Engine and mode are orthogonal (``--stream --engine compiled`` is the
    compiled streaming path); what stays rejected is baseline checkers with
    awdit-engine flags, checkpointing outside the compiled streaming path,
    and out-of-range sizes.
    """

    @pytest.fixture()
    def history_path(self, tmp_path):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        return str(path)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--checker", "plume", "--engine", "compiled"],
            ["--checker", "plume", "--engine", "object"],
            ["--checker", "plume", "--stream"],
            ["--stream", "--engine", "object", "--checkpoint", "state.awd"],
            ["--stream", "--checkpoint", "state.awd", "--checkpoint-every", "0"],
            ["--stream", "--checkpoint-every", "100"],
            ["--stream", "--resume"],
            ["--checkpoint", "state.awd"],
            ["--checkpoint-every", "100"],
            ["--retire"],
            ["--stream", "--retire-lag", "64"],
            ["--stream", "--retire-every", "64"],
            ["--stream", "--segment-dir", "segs"],
            ["--stream", "--retire", "--retire-lag", "-1"],
            ["--stream", "--retire", "--retire-every", "0"],
            ["--stream", "--retire", "--checkpoint", "state.awd"],
            ["--stream", "--retire", "--checker", "plume"],
            ["-w", "-1"],
            ["--stream", "--witnesses", "-1"],
            ["-i", "serializable-ish"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_conflicting_flags_exit_two(self, history_path, capsys, flags):
        assert main(["check", history_path, "-i", "cc"] + flags) == 2
        err = capsys.readouterr().err
        assert "awdit: error:" in err or "--stream" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--stream"],
            ["--stream", "--engine", "compiled"],
            ["--stream", "--engine", "object"],
            ["--stream", "--retire"],
            ["--stream", "--retire", "--retire-lag", "0", "--retire-every", "1"],
            ["--stream", "--engine", "object", "--retire"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_engine_and_mode_compose(self, history_path, capsys, flags):
        assert main(["check", history_path, "-i", "cc"] + flags) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_stream_with_baseline_checker_still_rejected(self, history_path, capsys):
        assert main(["check", history_path, "--stream", "--checker", "plume"]) == 2
        assert "awdit" in capsys.readouterr().err.lower()

    def test_stream_checkpoint_and_resume_round_trip(self, tmp_path, capsys):
        path = tmp_path / "h.plume"
        save_history(fig_4d(), str(path), fmt="plume")
        state = tmp_path / "state.awd"
        assert (
            main(
                [
                    "check", str(path), "-i", "cc", "--stream",
                    "--checkpoint", str(state), "--checkpoint-every", "2",
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert state.exists()
        assert (
            main(
                [
                    "check", str(path), "-i", "cc", "--stream",
                    "--checkpoint", str(state), "--resume",
                ]
            )
            == 0
        )
        resumed = capsys.readouterr().out
        assert "CONSISTENT" in first and "CONSISTENT" in resumed

    def test_retire_with_checkpoint_needs_segment_dir(self, tmp_path, capsys):
        path = tmp_path / "h.plume"
        save_history(fig_4d(), str(path), fmt="plume")
        state = tmp_path / "state.awd"
        args = [
            "check", str(path), "-i", "cc", "--stream", "--retire",
            "--checkpoint", str(state),
        ]
        assert main(args) == 2
        assert "--segment-dir" in capsys.readouterr().err
        assert (
            main(args + ["--segment-dir", str(tmp_path / "segs")]) == 0
        )
        assert "CONSISTENT" in capsys.readouterr().out

    def test_retiring_check_matches_plain_output(self, tmp_path, capsys):
        path = tmp_path / "h.plume"
        save_history(fig_4a(), str(path), fmt="plume")
        assert main(["check", str(path), "-i", "rc", "--stream"]) == 1
        plain = capsys.readouterr().out
        assert (
            main(
                [
                    "check", str(path), "-i", "rc", "--stream", "--retire",
                    "--retire-lag", "0", "--retire-every", "1",
                ]
            )
            == 1
        )
        retiring = capsys.readouterr().out
        # Witness text is byte-identical; only the wall-clock line differs.
        assert plain.splitlines()[1:] == retiring.splitlines()[1:]

    def test_stats_stream_retire_prints_counters(self, tmp_path, capsys):
        path = tmp_path / "h.plume"
        save_history(fig_4d(), str(path), fmt="plume")
        assert main(["stats", str(path), "--stream", "--retire"]) == 0
        out = capsys.readouterr().out
        assert "retirement:" in out
        assert "retired transactions" in out
        assert main(["stats", str(path), "--retire"]) == 2
        assert "--stream" in capsys.readouterr().err


class TestGenerateCommand:
    def test_generate_writes_a_parseable_history(self, tmp_path, capsys):
        out = tmp_path / "generated.json"
        code = main(
            [
                "generate",
                str(out),
                "--workload",
                "ctwitter",
                "--database",
                "postgres",
                "--sessions",
                "4",
                "--transactions",
                "40",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        history = load_history(str(out))
        assert history.num_sessions == 4
        assert history.num_transactions == 41  # +1 init transaction

    def test_generate_respects_isolation_mode_flag(self, tmp_path):
        out = tmp_path / "weak.json"
        code = main(
            [
                "generate",
                str(out),
                "--workload",
                "custom",
                "--database",
                "cockroach",
                "--isolation-mode",
                "read-committed",
                "--sessions",
                "3",
                "--transactions",
                "30",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["sessions"]


    @pytest.mark.parametrize(
        "flags",
        [
            ["--sessions", "0"],
            ["--transactions", "-1"],
            ["--workload", "nope"],
            ["--database", "nope"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_generator_arguments_exit_two(self, tmp_path, capsys, flags):
        out = tmp_path / "h.json"
        assert main(["generate", str(out), "--transactions", "5"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("awdit: error: ") and err.count("\n") == 1
        assert not out.exists()


class TestConvertAndStats:
    def test_convert_between_formats(self, tmp_path, capsys):
        src = tmp_path / "h.json"
        dst = tmp_path / "h.plume"
        save_history(fig_4a(), str(src))
        assert main(["convert", str(src), str(dst)]) == 0
        converted = load_history(str(dst))
        assert converted.num_operations == fig_4a().num_operations

    def test_stats_prints_summary(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        save_history(fig_4a(), str(path))
        assert main(["stats", str(path)]) == 0
        output = capsys.readouterr().out
        assert "transactions" in output
        assert "distinct keys" in output

    def test_stats_reports_interned_cardinalities_and_footprint(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        save_history(fig_4a(), str(path))
        assert main(["stats", str(path)]) == 0
        output = capsys.readouterr().out
        # fig_4a: one key (x), two values (1, 2), two sessions.
        assert "distinct keys          : 1" in output
        assert "interned values        : 2" in output
        assert "interned sessions      : 2" in output
        assert "compiled footprint" in output and "KiB" in output

    def test_stats_stream_reports_live_state_peaks(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        save_history(fig_4a(), str(path))
        assert main(["stats", str(path), "--stream"]) == 0
        output = capsys.readouterr().out
        assert "Online core over 3 transactions" in output
        assert "pending reads" in output
        assert "interned keys          : 1" in output
        assert "writes index entries   : 2" in output


class TestRemovedShardedEngine:
    """``--jobs`` and ``--engine sharded`` are gone; argparse rejects them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--jobs", "2"],
            ["check", "--jobs", "0"],
            ["check", "--engine", "sharded"],
            ["check", "--engine", "object", "--jobs", "2"],
            ["check", "--engine", "compiled", "--jobs", "2"],
            ["check", "--checker", "plume", "--jobs", "2"],
            ["check", "--stream", "--jobs", "2"],
            ["check", "--stream", "--engine", "sharded"],
            ["check", "--stream", "--engine", "object", "--jobs", "2"],
            ["stats", "--jobs", "0"],
            ["stats", "--stream", "--jobs", "2"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_removed_option_exits_two(self, tmp_path, capsys, argv):
        path = tmp_path / "h.json"
        save_history(fig_4d(), str(path))
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], str(path)] + argv[1:])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert (
            "unrecognized arguments: --jobs" in message
            or "invalid choice: 'sharded'" in message
        )


class TestPathErrors:
    """A missing or unreadable path is a one-line usage error (exit 2).

    Exit 1 means VIOLATION, so an ``OSError`` must never surface as a
    traceback with that status.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{missing}"],
            ["check", "{missing}", "--stream"],
            ["check", "{missing}", "--stream", "--engine", "object"],
            ["check", "{missing}", "--checker", "plume"],
            ["check", "{directory}"],
            ["check", "{directory}", "--stream"],
            ["stats", "{missing}"],
            ["stats", "{missing}", "--stream"],
            ["convert", "{missing}", "{tmp}/out.plume"],
            ["convert", "{history}", "{tmp}/no/such/out.plume"],
            ["generate", "{tmp}/no/such/x.json", "--transactions", "5"],
            ["check", "{history}", "--stream", "--checkpoint", "{tmp}/no/such/c.bin"],
            ["check", "{history}", "--stream", "--resume", "--checkpoint", "{tmp}/c.bin"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_path_error_exits_two_with_one_line(self, tmp_path, capsys, argv):
        history = tmp_path / "h.plume"
        save_history(fig_4d(), str(history), fmt="plume")
        directory = tmp_path / "dir.plume"
        directory.mkdir()
        names = {
            "missing": str(tmp_path / "nope.plume"),
            "directory": str(directory),
            "history": str(history),
            "tmp": str(tmp_path),
        }
        assert main([arg.format(**names) for arg in argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("awdit: error: "), captured.err
        assert str(tmp_path) in lines[0]
        assert "VIOLATION" not in captured.out
