"""Command-line behaviour: outputs, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys

import pytest

import sharp_rosenthal
from sharp_rosenthal.cli import EXIT_CASE_FAILED, EXIT_OK, EXIT_PARSE, EXIT_UNSUPPORTED, main


def run_cli(capsys, *argv):
    """main's exit code, also when argparse exits, with its stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_even_mode(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--p", "4", "--A", "1", "--B", "1", "--mode", "even")
        assert code == EXIT_OK
        assert "4" in out and "even_p_closed_form" in out

    def test_exact_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--p", "5", "--q", "5", "--A", "1", "--B", "1", "--output", "json"
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert float(record["value"]) == pytest.approx(11.735758882342862, rel=1e-12)
        assert record["regime"] == "p_ge_5"
        assert float(record["lambda"]) == 1.0 and float(record["c"]) == 1.0

    def test_low_regime(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--p", "2.5", "--A", "1", "--B", "1", "--output", "json"
        )
        assert code == EXIT_OK
        assert float(json.loads(out)["value"]) == pytest.approx(2.2332684379936882, rel=1e-11)

    def test_unsupported_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--p", "3.5", "--A", "1", "--B", "1")
        assert code == EXIT_UNSUPPORTED
        assert "unsupported" in err

    def test_x_file(self, capsys, tmp_path):
        rv_file = tmp_path / "x.json"
        rv_file.write_text(json.dumps({"atoms": [[-1.0, 0.5], [1.0, 0.5]]}))
        code, out, _ = run_cli(
            capsys,
            "bound", "--p", "5", "--A", "1", "--B", "1", "--x", str(rv_file), "--output", "json",
        )
        assert code == EXIT_OK
        assert float(json.loads(out)["value"]) > 11.7

    def test_noncentered_x_rejected_with_hypothesis_message(self, capsys, tmp_path):
        rv_file = tmp_path / "x.json"
        rv_file.write_text(json.dumps({"atoms": [[1.0, 1.0]]}))
        code, _, err = run_cli(
            capsys, "bound", "--p", "5", "--A", "1", "--B", "1", "--x", str(rv_file)
        )
        assert code == EXIT_CASE_FAILED
        assert "mean 0" in err

    def test_bad_json_exit_code(self, capsys, tmp_path):
        rv_file = tmp_path / "x.json"
        rv_file.write_text("{not json")
        code, _, _ = run_cli(
            capsys, "bound", "--p", "5", "--A", "1", "--B", "1", "--x", str(rv_file)
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("command", [("bound",), ("accompany", "--n", "4")])
    def test_lambda_overflow_exit_code(self, capsys, command):
        code, _, err = run_cli(capsys, *command, "--p", "2.01", "--A", "0.001", "--B", "1000")
        assert code == EXIT_PARSE
        assert "input error" in err

    def test_parse_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", "--p", "not-a-number", "--A", "1", "--B", "1"])
        assert excinfo.value.code == EXIT_PARSE



class TestRefusedInputs:
    """An input a command cannot use as given exits 3 rather than being
    rounded, replaced or dropped."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("bound", "--mode", "even", "--p", "4.5", "--A", "1", "--B", "1"), "4.5"),
            (("bound", "--mode", "even", "--p", "6", "--q", "5", "--A", "1", "--B", "1"), "q = p"),
            (("bound", "--p", "5", "--A", "1", "--B", "1", "--A1", "1"), "--A1"),
            (("bound", "--mode", "symmetric", "--p", "5", "--A", "1", "--B", "1", "--B1", "1"),
             "--B1"),
            (("verify", "tightness", "--p", "5.9"), "5.9"),
            (("accompany", "--p", "4", "--A", "1", "--B", "1", "--n", "16", "--tol", "1e-3"),
             "--tol"),
            (("verify", "fuzz", "--cases", "1", "--output", "json"), "--output"),
            (("scan", "--p", "5", "--A", "1", "--B", "1", "--grid", "21"), "21"),
            (("scan", "--p", "5", "--A", "1", "--B", "1", "--grid", "1"), "grid"),
            # each verify suite takes only the flags it reads
            (("verify", "domination", "--cases", "2", "--p", "9"), "--p 9"),
            (("verify", "tightness", "--tol", "1e-3"), "--tol"),
            (("verify", "variation", "--cases", "2", "--q", "6"), "--q 6"),
            (("verify", "qscan", "--cases", "2"), "--cases"),
            (("bound", "--mode", "even", "--p", "4", "--A", "1", "--B", "1", "--tol", "1e-9"),
             "--tol"),
            (("bound", "--mode", "even", "--p", "4", "--A", "1", "--B", "1", "--max-terms", "99"),
             "--max-terms"),
        ],
    )
    def test_exit_parse(self, capsys, argv, named):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE
        assert named in err

    def test_even_mode_refuses_x(self, capsys, tmp_path):
        rv_file = tmp_path / "x.json"
        rv_file.write_text(json.dumps({"atoms": [[-1.0, 0.3], [0.2, 0.5], [1.0, 0.2]]}))
        code, _, err = run_cli(
            capsys,
            "bound", "--mode", "even", "--p", "6", "--A", "1", "--B", "1", "--x", str(rv_file),
        )
        assert code == EXIT_PARSE
        assert "--x zero" in err

    def test_even_mode_takes_q_equal_p(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--mode", "even", "--p", "6", "--q", "6", "--A", "1", "--B", "1",
            "--output", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == "41"

    @pytest.mark.parametrize(
        "text", ["{}", "[1, 2]", '{"atoms": 5}', '{"atoms": [[null, 1]]}', '"x"']
    )
    def test_malformed_x_file(self, capsys, tmp_path, text):
        rv_file = tmp_path / "x.json"
        rv_file.write_text(text)
        code, _, err = run_cli(
            capsys, "bound", "--p", "5", "--A", "1", "--B", "1", "--x", str(rv_file)
        )
        assert code == EXIT_PARSE
        assert "atoms" in err

class TestConstantsCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--p-values", "4,6,3.5", "--gamma-values", "1"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "p,gamma,exact_C,classical_C,ratio"
        assert lines[1].startswith("4,1,4,1024,256")
        cells = lines[2].split(",")
        assert cells[2] == "41"
        assert float(cells[3]) == pytest.approx(3.0**3 * 2.0**15, rel=1e-15)
        assert "unsupported" in lines[3]

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--p-values", "5,2.5", "--gamma-values", "0.5,2"
        )
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            for cell in line.split(","):
                if cell and cell != "unsupported":
                    assert float(repr(float(cell))) == float(cell)


class TestVerifyCommand:
    def test_fuzz_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "fuzz", "--cases", "5", "--seed", "7", "--p", "5"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert record["status"] == "pass"
            assert set(record) == {"case_id", "seed", "p", "q", "lhs", "rhs", "slack", "status"}

    def test_qscan(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "qscan", "--p", "5", "--grid", "8"
        )
        assert code == EXIT_OK
        assert json.loads(out.strip().splitlines()[-1])["status"] == "pass"

    def test_bare_tightness_takes_p_4(self, capsys):
        # with no --p, tightness takes the even p = 4
        code, bare, _ = run_cli(capsys, "verify", "tightness")
        assert code == EXIT_OK
        assert bare == run_cli(capsys, "verify", "tightness", "--p", "4")[1]

    def test_bare_fuzz_takes_p_5(self, capsys):
        _, bare, _ = run_cli(capsys, "verify", "fuzz", "--cases", "3")
        assert bare == run_cli(capsys, "verify", "fuzz", "--cases", "3", "--p", "5")[1]


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_pipe_stops_quietly(self, unbuffered):
        # a reader that stops early, as `| head -c 10` does, closes the pipe;
        # closing it before any output makes the first write fail: at the
        # final flush when stdout is buffered, at the first print when not
        src = os.path.dirname(os.path.dirname(sharp_rosenthal.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        argv = [sys.executable, "-m", "sharp_rosenthal.cli", "verify", "fuzz", "--cases", "2"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == EXIT_CASE_FAILED
        assert err == ""


class TestDeterminism:
    def test_byte_identical_repeat(self, capsys):
        args = ("verify", "fuzz", "--cases", "4", "--seed", "11", "--p", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestScanLimitAccompany:
    def test_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--p", "5", "--A", "1", "--B", "1", "--grid", "8", "--output", "json"
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert abs(float(record["best_c1"])) == 1.0
        assert float(record["best_lambda2"]) == 0.0

    def test_limit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "limit", "--p", "2.5", "--A", "1", "--B", "1", "--b", "0", "--a", "0.5",
            "--c2", "10,100,1000",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert json.loads(lines[-1])["gaps_decreasing"] is True

    def test_accompany(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "accompany", "--p", "4", "--A", "1", "--B", "1", "--n", "1024", "--output", "json",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert float(record["kappa"]) == pytest.approx(1.0, abs=0.01)
        assert float(record["moment"]) < 4.0
