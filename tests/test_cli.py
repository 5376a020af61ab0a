"""End-to-end CLI tests driven through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdialogue import harness
from qdialogue.cli import main
from qdialogue.harness import parse_transcript_line

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_replay_attack_headline_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--protocol",
            "original",
            "--attack",
            "bell-substitution",
            "--rounds",
            "3000",
            "--seed",
            "7",
        )
        assert code == 0
        assert "detection_rate" in out and "0.000000" in out
        assert "eve_alice_accuracy" in out and "1.000000" in out

    def test_zero_rounds_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--rounds", "0")
        assert code == 2
        assert "--rounds" in err

    def test_bad_probability_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--p-cm", "1.5")
        assert code == 2
        assert "--p-cm" in err

    def test_unknown_attack_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--attack", "clone")
        assert code == 2
        assert "--attack" in err

    def test_modified_low_p_cm_counts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--protocol",
            "modified",
            "--attack",
            "none",
            "--rounds",
            "1000",
            "--seed",
            "3",
            "--p-cm",
            "0.25",
            "--format",
            "records",
        )
        assert code == 0
        record = json.loads(out)
        # both-CM rounds arrive at rate p_cm^2 = 1/16; allow a wide window
        assert 30 <= record["rounds_cm"] <= 100
        assert record["detection_rate"] == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--rounds", "50", "--seed", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("rounds_total,rounds_cm,rounds_mm")
        assert len(lines) == 2

    def test_output_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "rounds.jsonl"
        code, _, _ = run_cli(
            capsys, "run", "--rounds", "40", "--seed", "2", "--output", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 40
        for line in lines:
            parse_transcript_line(line)

    def test_unwritable_output_is_io_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--rounds",
            "5",
            "--output",
            "/nonexistent-dir/rounds.jsonl",
        )
        assert code == 1
        assert err.startswith("error: cannot write /nonexistent-dir/rounds.jsonl: ")
        assert ".tmp" not in err  # the temp file is no concern of the user's

    def test_negative_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--seed", "-1")
        assert code == 2
        assert err.startswith("error: seed")

    def test_configuration_error_writes_no_output_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--seed", "-1", "--output", str(tmp_path / "r.jsonl"))
        assert code == 2
        assert err.startswith("error: seed")
        assert list(tmp_path.iterdir()) == []

    def test_output_file_gets_the_umask_mode(self, capsys, tmp_path):
        path = tmp_path / "rounds.jsonl"
        umask = os.umask(0o027)
        try:
            assert run_cli(capsys, "run", "--rounds", "5", "--output", str(path))[0] == 0
        finally:
            os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_output_directory_target_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--rounds", "5", "--output", str(tmp_path))
        assert code == 1
        assert "cannot write" in err
        assert list(tmp_path.iterdir()) == []

    def test_run_that_fails_partway_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "rounds.jsonl"
        real = harness.transcript_to_line
        written = []

        def failing(t):
            if len(written) == 30:
                raise RuntimeError("simulated failure mid-run")
            written.append(t)
            return real(t)

        monkeypatch.setattr(harness, "transcript_to_line", failing)
        with pytest.raises(RuntimeError, match="mid-run"):
            main(["run", "--rounds", "100", "--output", str(path)])
        assert len(written) == 30
        assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file

    def test_failed_run_keeps_the_previous_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "rounds.jsonl"
        path.write_text("previous\n")

        def interrupted(t):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "transcript_to_line", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--rounds", "10", "--output", str(path)])
        assert path.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_seed_determines_output(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "--rounds", "200", "--seed", "5", "--format", "records")
        _, out2, _ = run_cli(capsys, "run", "--rounds", "200", "--seed", "5", "--format", "records")
        assert out1 == out2

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_streaming_run_memory_does_not_grow_with_rounds(self, tmp_path):
        # each child reports its own peak RSS: ten times the rounds may not
        # cost more than a few MB, so no round outlives its line
        child = (
            "import resource, sys\n"
            "from qdialogue.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        peak_kib = {}
        for rounds in (10_000, 100_000):
            result = subprocess.run(
                [sys.executable, "-c", child, "run", "--protocol", "modified",
                 "--attack", "bell-substitution", "--rounds", str(rounds),
                 "--output", str(tmp_path / f"{rounds}.jsonl")],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            peak_kib[rounds] = int(result.stderr.split()[-1])
        assert peak_kib[100_000] - peak_kib[10_000] <= 4 * 1024, peak_kib


class TestOracleCommand:
    def test_disturbance_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--protocol", "original", "--attack", "disturbance")
        assert code == 0
        assert "1/4" in out
        assert "3/4" in out

    def test_transparent_channel(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--protocol", "original", "--attack", "none")
        assert code == 0
        assert "check_pass_probability" in out
        assert "  1  (1.000000)" in out

    def test_measure_resend(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--protocol", "original", "--attack", "measure-resend"
        )
        assert code == 0
        assert "1/2" in out

    def test_records_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            "--protocol",
            "modified",
            "--attack",
            "bell-substitution",
            "--format",
            "records",
        )
        assert code == 0
        record = json.loads(out)
        assert record["check_pass_probability"] == "1"
        assert record["detection_probability_decimal"] == 0.0
        assert record["eve_alice_accuracy"] == "1"
        assert len(record["outcome_distribution"]) == 16

    def test_unknown_protocol_rejected(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--protocol", "improved")
        assert code == 2
        assert "--protocol" in err


class TestDialogueCommand:
    def test_honest_exchange_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "dialogue", "--attack", "none", "--alice-text", "hi", "--bob-text", "ok"
        )
        assert code == 0
        assert "bob recovered  'hi'" in out
        assert "alice recovered 'ok'" in out
        assert out.count("(nothing)") == 2

    def test_replay_attack_reads_both_texts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dialogue",
            "--attack",
            "bell-substitution",
            "--alice-text",
            "hi",
            "--bob-text",
            "ok",
        )
        assert code == 0
        assert "bob recovered  'hi'" in out
        assert "eve's copy of alice's text: 'hi'" in out
        assert "eve's copy of bob's text:   'ok'" in out

    def test_suppressing_outcome_reveal_hides_bob_from_eve(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dialogue",
            "--attack",
            "bell-substitution",
            "--alice-text",
            "hi",
            "--bob-text",
            "ok",
            "--suppress-outcome-reveal",
        )
        assert code == 0
        assert "eve's copy of alice's text: 'hi'" in out
        assert "eve's copy of bob's text:   (nothing)" in out
        assert "alice recovered 'ok'" in out  # Alice still gets the outcome privately

    @pytest.mark.parametrize("attack", ["none", "bell-substitution"])
    def test_empty_texts_give_the_usual_report(self, attack, capsys):
        code, out, _ = run_cli(
            capsys, "dialogue", "--attack", attack, "--alice-text", "", "--bob-text", ""
        )
        assert code == 0
        assert out == (
            "alice sent     ''\n"
            "bob recovered  ''\n"
            "bob sent       ''\n"
            "alice recovered ''\n"
            "eve's copy of alice's text: (nothing)\n"
            "eve's copy of bob's text:   (nothing)\n"
        )

    def test_negative_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "dialogue", "--alice-text", "hi", "--bob-text", "ok", "--seed", "-3"
        )
        assert code == 2
        assert err.startswith("error: seed")

    @pytest.mark.parametrize("flag", ["--alice-text", "--bob-text"])
    def test_text_without_a_utf8_encoding_is_usage_error(self, flag, capsys):
        # a non-UTF-8 argv byte reaches Python as a lone surrogate
        argv = {"--alice-text": "hi", "--bob-text": "ok", flag: "\udcff"}
        code, out, err = run_cli(capsys, "dialogue", *[x for kv in argv.items() for x in kv])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} cannot be encoded as UTF-8")

    def test_non_utf8_argv_byte_exits_2_without_a_traceback(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "qdialogue", "dialogue", "--alice-text", b"\xff",
             "--bob-text", "x"],
            capture_output=True, env=env, timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.startswith(b"error: alice_text cannot be encoded as UTF-8")
        assert b"Traceback" not in result.stderr

    def test_missing_text_flags_are_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "dialogue", "--attack", "none", "--alice-text", "hi")
        assert code == 2
        assert "--bob-text" in err


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "run" in out and "oracle" in out and "dialogue" in out

    def test_missing_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2
