import json

import pytest
from click.testing import CliRunner

import recliff
from recliff.cli import main

from conftest import WORKED_EXAMPLE_TEXT


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


class TestCompileCommand:
    def test_worked_example_to_ecr(self, runner, tmp_path):
        src = tmp_path / "worked_example.stim"
        src.write_text(WORKED_EXAMPLE_TEXT)
        meta = tmp_path / "meta.json"
        out = tmp_path / "out.stim"
        result = invoke(
            runner, "compile", "--target", "ecr", "--natives", "s_sx",
            str(src), "-o", str(out), "--metadata", str(meta),
        )
        assert result.exit_code == 0, result.output
        data = json.loads(meta.read_text())
        assert data["frame"] == "+X2"
        assert data["verified"] is True
        assert data["output_counts"] == {"S": 6, "SQRT_X": 4, "ECR": 4}
        assert data["input_counts"] == {"H": 2, "CX": 4}

    def test_compiled_output_verifies_up_to_frame(self, runner, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text(WORKED_EXAMPLE_TEXT)
        out = tmp_path / "out.stim"
        r = invoke(runner, "compile", "--target", "ecr", str(src), "-o", str(out))
        assert r.exit_code == 0
        r = invoke(runner, "verify", str(out), str(src), "--up-to-frame")
        assert r.exit_code == 0
        assert "+X2" in r.output

    def test_sqrt_xx_preserves_two_qubit_count(self, runner, tmp_path):
        gen = tmp_path / "d5.stim"
        r = invoke(runner, "generate", "surface-code", "--distance", "5",
                   "-o", str(gen))
        assert r.exit_code == 0
        out = tmp_path / "out.stim"
        r = invoke(runner, "compile", "--target", "sqrt_xx", str(gen), "-o", str(out))
        assert r.exit_code == 0
        assert out.read_text().count("SQRT_XX") == 4 * 5 * 4

    def test_empty_circuit(self, runner, tmp_path):
        src = tmp_path / "empty.stim"
        src.write_text("")
        out = tmp_path / "out.stim"
        r = invoke(runner, "compile", "--target", "ecr", str(src), "-o", str(out))
        assert r.exit_code == 0
        assert out.read_text() == ""

    def test_parse_error_exit_2(self, runner, tmp_path):
        src = tmp_path / "bad.stim"
        src.write_text("RX(0.1) 0")
        r = invoke(runner, "compile", "--target", "ecr", str(src))
        assert r.exit_code == 2

    def test_class_mismatch_exit_3(self, runner, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text("CX 0 1\n")
        r = invoke(runner, "compile", "--target", "iswap", str(src))
        assert r.exit_code == 3

    def test_iswap_heuristic_flag(self, runner, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text("CX 0 1\n")
        out = tmp_path / "out.stim"
        r = invoke(runner, "compile", "--target", "iswap", "--iswap-heuristic",
                   str(src), "-o", str(out))
        assert r.exit_code == 0
        assert "ISWAP" in out.read_text()

    def test_expand_ecr(self, runner, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text("CX 0 1\n")
        out = tmp_path / "out.stim"
        r = invoke(runner, "compile", "--target", "ecr", "--expand-ecr",
                   str(src), "-o", str(out))
        assert r.exit_code == 0
        text = out.read_text()
        assert "ECR" not in text and "CX 0 1" in text

    def test_stdout_output(self, runner, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text("CX 0 1\n")
        r = invoke(runner, "compile", "--target", "cx", str(src))
        assert r.exit_code == 0
        assert "CX 0 1" in r.output

    def test_show_tableau(self, runner, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text("CX 0 1\n")
        r = runner.invoke(
            main, ["compile", "--target", "cx", "--show-tableau", str(src)],
            catch_exceptions=False,
        )
        assert r.exit_code == 0
        assert "+/-" in r.output

    def test_batch(self, runner, tmp_path):
        files = []
        for i in range(3):
            p = tmp_path / f"c{i}.stim"
            p.write_text("CX 0 1\nTICK\nH 0\n")
            files.append(str(p))
        r = invoke(runner, "compile", "--target", "sqrt_xx", *files)
        assert r.exit_code == 0
        for i in range(3):
            assert (tmp_path / f"c{i}.sqrt_xx.stim").exists()


class TestVerifyCommand:
    def test_file_vs_itself(self, runner, tmp_path):
        src = tmp_path / "a.stim"
        src.write_text(WORKED_EXAMPLE_TEXT)
        r = invoke(runner, "verify", str(src), str(src))
        assert r.exit_code == 0

    def test_cx_vs_ecr_not_equivalent(self, runner, tmp_path):
        a = tmp_path / "a.stim"
        b = tmp_path / "b.stim"
        a.write_text("CX 0 1\n")
        b.write_text("ECR 0 1\n")
        r = invoke(runner, "verify", str(a), str(b))
        assert r.exit_code == 1
        r = invoke(runner, "verify", str(a), str(b), "--up-to-frame")
        assert r.exit_code == 1

    def test_heuristic_output_verifies_with_both_relaxations(self, runner, tmp_path):
        from recliff import builtin_gateset, compile_with_iswap_heuristic, emit, parse
        from conftest import FAN_OUT_TEXT

        src = tmp_path / "src.stim"
        src.write_text(FAN_OUT_TEXT)
        res = compile_with_iswap_heuristic(
            parse(FAN_OUT_TEXT), builtin_gateset("iswap", "s_sx")
        )
        out = tmp_path / "out.stim"
        out.write_text(emit(res.circuit))
        r = invoke(runner, "verify", str(out), str(src),
                   "--up-to-frame", "--up-to-permutation")
        assert r.exit_code == 0
        assert "permutation" in r.output

    def test_up_to_permutation(self, runner, tmp_path):
        # a equals b with its output wires swapped
        a = tmp_path / "a.stim"
        b = tmp_path / "b.stim"
        a.write_text("CX 0 1\nTICK\nSWAP 0 1\n")
        b.write_text("CX 0 1\n")
        r = invoke(runner, "verify", str(a), str(b), "--up-to-permutation")
        assert r.exit_code == 0
        r = invoke(runner, "verify", str(a), str(b))
        assert r.exit_code == 1


class TestQubitLimit:
    """Oversized inputs are refused after parsing, before any tableau exists."""

    @pytest.fixture
    def no_tableaux(self, monkeypatch):
        import recliff.tableau

        def refuse(n):
            raise AssertionError(f"a {n}-qubit tableau was built")

        monkeypatch.setattr(recliff.tableau, "identity", refuse)

    @pytest.fixture
    def six_qubits(self, tmp_path):
        src = tmp_path / "six.stim"
        src.write_text("CX 0 1\nH 5\n")
        return src

    def test_compile_over_limit_exit_3(self, runner, six_qubits, no_tableaux):
        r = invoke(runner, "compile", "--target", "ecr", "--max-qubits", "5", str(six_qubits))
        assert r.exit_code == 3
        assert r.output == f"{six_qubits}: 6 qubits exceeds --max-qubits 5\n"

    def test_verify_over_limit_exit_3(self, runner, six_qubits, no_tableaux):
        r = invoke(runner, "verify", "--max-qubits", "5", str(six_qubits), str(six_qubits))
        assert r.exit_code == 3
        assert "6 qubits exceeds --max-qubits 5" in r.output

    def test_at_limit_runs(self, runner, six_qubits):
        r = invoke(runner, "compile", "--target", "ecr", "--max-qubits", "6", str(six_qubits))
        assert r.exit_code == 0
        r = invoke(runner, "verify", "--max-qubits", "6", str(six_qubits), str(six_qubits))
        assert r.exit_code == 0

    def test_default_keeps_one_tableau_near_half_a_gigabyte(self):
        from recliff.cli import DEFAULT_MAX_QUBITS

        assert DEFAULT_MAX_QUBITS ** 2 // 2 == 2 ** 29


class TestGenerateAndStats:
    def test_surface_code_stats_pipeline(self, runner, tmp_path):
        gen = tmp_path / "d11.stim"
        r = invoke(runner, "generate", "surface-code", "--distance", "11",
                   "-o", str(gen))
        assert r.exit_code == 0
        r = invoke(runner, "stats", str(gen))
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["counts"] == {"CX": 440, "H": 120}

    def test_random_clifford_deterministic(self, runner, tmp_path):
        a = tmp_path / "a.stim"
        b = tmp_path / "b.stim"
        for path in (a, b):
            r = invoke(runner, "generate", "random-clifford", "--qubits", "4",
                       "--entanglers", "6", "--seed", "7", "-o", str(path))
            assert r.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stats_csv_empty(self, runner, tmp_path):
        src = tmp_path / "empty.stim"
        src.write_text("")
        r = invoke(runner, "stats", str(src), "--format", "csv")
        assert r.exit_code == 0
        assert r.output == "name,count\n"

    def test_invalid_distance(self, runner):
        r = invoke(runner, "generate", "surface-code", "--distance", "4")
        assert r.exit_code == 3


class TestCompareCommand:
    def test_compare_external_files(self, runner, tmp_path):
        a = tmp_path / "a.stim"
        b = tmp_path / "b.stim"
        a.write_text("S 0\nSQRT_X 1\nTICK\nCX 0 1\n")
        b.write_text("S 0\nS 1\nTICK\nSQRT_X 0\nTICK\nCX 0 1\n")
        r = invoke(runner, "compare", str(a), str(b))
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["ratios"]["two_qubit"] == 1.0
        assert data["ratios"]["z_type"] == 0.5


class TestStdinStdout:
    def test_dash_paths(self, runner):
        r = runner.invoke(
            main, ["compile", "--target", "cz", "-"],
            input="CX 0 1\n", catch_exceptions=False,
        )
        assert r.exit_code == 0
        assert "CZ 0 1" in r.output


class TestMalformedInput:
    """Input that is not dialect text exits 2 with one line, no traceback."""

    NOT_UTF8 = b"\xff\xfeH 0\n"
    COMMANDS = (["compile", "--target", "ecr"], ["verify", "-"], ["stats"])

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_undecodable_file_exit_2(self, runner, tmp_path, args):
        src = tmp_path / "bad.stim"
        src.write_bytes(self.NOT_UTF8)
        r = invoke(runner, *args, str(src), input="H 0\n")
        assert r.exit_code == 2
        assert r.output == f"cannot read {src}: not valid UTF-8 at byte 0\n"

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_undecodable_stdin_exit_2(self, runner, tmp_path, args):
        other = tmp_path / "ok.stim"
        other.write_text("H 0\n")
        args = [a if a != "-" else str(other) for a in args]
        r = invoke(runner, *args, "-", input=self.NOT_UTF8)
        assert r.exit_code == 2
        assert r.output == "cannot read -: not valid UTF-8 at byte 0\n"

    def test_non_ascii_target_exit_2(self, runner, tmp_path):
        src = tmp_path / "bad.stim"
        src.write_text("H \uff11\n", encoding="utf-8")
        r = invoke(runner, "compile", "--target", "ecr", str(src))
        assert r.exit_code == 2
        assert r.output.count("\n") == 1 and "non-ASCII" in r.output


class TestThinAdapter:
    def test_compile_output_equals_library_call(self, runner, tmp_path):
        from recliff import builtin_gateset, compile_circuit, emit, parse

        src = tmp_path / "src.stim"
        src.write_text(WORKED_EXAMPLE_TEXT)
        r = invoke(runner, "compile", "--target", "ecr", "--natives", "s_sx", str(src))
        lib = compile_circuit(parse(WORKED_EXAMPLE_TEXT), builtin_gateset("ecr", "s_sx"))
        assert r.output == emit(lib.circuit)

    def test_stats_output_equals_library_call(self, runner, tmp_path):
        from recliff import parse, report

        src = tmp_path / "src.stim"
        src.write_text(WORKED_EXAMPLE_TEXT)
        r = invoke(runner, "stats", str(src))
        assert r.output == report(parse(WORKED_EXAMPLE_TEXT)).to_json() + "\n"

    def test_version_flag(self, runner):
        r = invoke(runner, "--version")
        assert r.exit_code == 0
        assert r.output == f"recliff, version {recliff.__version__}\n"
