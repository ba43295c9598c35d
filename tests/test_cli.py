import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import recliff
from recliff import (
    SurfaceCodeSpec,
    builtin_gateset,
    compile_with_iswap_heuristic,
    emit,
    from_circuit,
    parse,
    surface_code_syndrome_extraction,
)
from recliff.cli import main
from recliff.tableau import describe_difference

from conftest import (
    GATES_1Q, HUGE_TARGETS, WORKED_EXAMPLE_TEXT, equal_up_to_sign, mutated_texts,
    reference_solve_frame, relabelled_pairs,
)


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

    def test_batch_rejects_metadata_before_compiling(self, runner, tmp_path):
        files = []
        for i in range(2):
            p = tmp_path / f"c{i}.stim"
            p.write_text("CX 0 1\n")
            files.append(str(p))
        meta = tmp_path / "m.json"
        r = invoke(runner, "compile", "--target", "ecr", *files, "--metadata", str(meta))
        assert r.exit_code == 3
        assert r.output == "--metadata is only valid with a single input\n"
        assert not meta.exists()
        assert not list(tmp_path.glob("*.ecr.stim"))


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

    def test_permutation_beyond_eight_qubits(self, runner, tmp_path):
        # A swap-insertion output on 49 qubits verifies against its source and
        # prints the compiler's own wire relabelling and frame.
        source = surface_code_syndrome_extraction(SurfaceCodeSpec(5))
        res = compile_with_iswap_heuristic(source, builtin_gateset("iswap"))
        assert source.n == 49 and res.permutation != tuple(range(49))
        src, out = tmp_path / "src.stim", tmp_path / "out.stim"
        src.write_text(emit(source))
        out.write_text(emit(res.circuit))
        r = invoke(runner, "verify", str(out), str(src), "--up-to-frame", "--up-to-permutation")
        assert r.exit_code == 0
        assert r.output == (f"equivalent up to frame {res.frame} "
                            f"and permutation {list(res.permutation)}\n")


class TestVerifyFailureLine:
    """Without --up-to-permutation a rejection names the first disagreeing
    generator and both of its images, on one line."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = {}
        for name, text in (("cx", "CX 0 1\n"), ("ecr", "ECR 0 1\n"),
                           ("h", "H 0\n"), ("hz", "H 0\nTICK\nZ 0\n")):
            paths[name] = tmp_path / f"{name}.stim"
            paths[name].write_text(text)
        return paths

    @pytest.mark.parametrize("flags", [[], ["--up-to-frame"]])
    def test_letters_differ(self, runner, files, flags):
        r = invoke(runner, "verify", str(files["cx"]), str(files["ecr"]), *flags)
        assert r.exit_code == 1
        assert r.output == (f"not equivalent: generator X0 maps to +X0*X1 in {files['cx']} "
                            f"but to -Y0*X1 in {files['ecr']}\n")

    def test_only_signs_differ(self, runner, files):
        r = invoke(runner, "verify", str(files["h"]), str(files["hz"]))
        assert r.exit_code == 1
        assert r.output == (f"not equivalent: generator Z0 maps to +X0 in {files['h']} "
                            f"but to -X0 in {files['hz']}; "
                            "only signs differ, which a Pauli frame fixes\n")
        r = invoke(runner, "verify", str(files["h"]), str(files["hz"]), "--up-to-frame")
        assert r.exit_code == 0
        assert r.output == "equivalent up to frame +Z0\n"


def brute_force_verdict(ta, t_b, up_to_frame):
    """The relabelling search that wire matching replaced: every permutation
    in lexicographic order, first accepted one wins."""
    for sigma in itertools.permutations(range(ta.n)):
        cand = t_b.relabel_wires(sigma)
        if up_to_frame:
            ok, flips = equal_up_to_sign(ta, cand)
            if ok:
                frame = reference_solve_frame(ta.images(), flips)
                return 0, f"equivalent up to frame {frame} and permutation {list(sigma)}\n"
        elif ta == cand:
            return 0, f"equivalent up to permutation {list(sigma)}\n"
    return 1, "not equivalent\n"


def two_tableau_verdict(ta, t_b, up_to_frame, name_a, name_b):
    """What verify printed when it compared the two tableaux directly,
    without --up-to-permutation."""
    if up_to_frame:
        ok, flips = equal_up_to_sign(ta, t_b)
        if ok:
            return 0, f"equivalent up to frame {reference_solve_frame(ta.images(), flips)}\n"
    elif ta == t_b:
        return 0, "equivalent\n"
    return 1, f"not equivalent: {describe_difference(ta, t_b, name_a, name_b)}\n"


def run_verify(a, b, flags):
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = Path(tmp, "a.stim"), Path(tmp, "b.stim")
        pa.write_text(emit(a))
        pb.write_text(emit(b))
        r = CliRunner().invoke(main, ["verify", str(pa), str(pb), *flags],
                               catch_exceptions=False)
    return (r.exit_code, r.output.replace(str(pa), "a.stim").replace(str(pb), "b.stim"))


class TestVerifyAgainstTwoTableaux:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(relabelled_pairs(), relabelled_pairs(relabel=False)),
           st.booleans(), st.booleans())
    def test_same_exit_and_line_without_permutation(self, pair, up_to_frame, swapped):
        a, b = pair[::-1] if swapped else pair
        flags = ["--up-to-frame"] if up_to_frame else []
        want = two_tableau_verdict(from_circuit(a), from_circuit(b), up_to_frame,
                                   "a.stim", "b.stim")
        assert run_verify(a, b, flags) == want


class TestVerifyWork:
    @pytest.mark.parametrize("flags", [[], ["--up-to-frame"], ["--up-to-permutation"],
                                       ["--up-to-frame", "--up-to-permutation"]])
    def test_success_builds_one_tableau(self, monkeypatch, flags):
        """An aligned pair is certified wire by wire and builds no tableau; a
        pair that does not align builds exactly one, for the map a b^-1."""
        import recliff.tableau

        built, blank = [], recliff.tableau.identity

        def counted(n):
            built.append(n)
            return blank(n)

        def refuse(circuit):
            raise AssertionError("a circuit was simulated on its own")

        monkeypatch.setattr(recliff.tableau, "identity", counted)
        monkeypatch.setattr(recliff.tableau, "from_circuit", refuse)
        a = parse(WORKED_EXAMPLE_TEXT)
        code, out = run_verify(a, a, flags)
        assert (code, built) == (0, []), out
        code, out = run_verify(parse("CX 0 1\nTICK\nCX 0 1"), parse(""), flags)
        assert (code, built) == (0, [2]), out


class TestWireMatchingAgainstSearch:
    @settings(max_examples=120, deadline=None)
    @given(relabelled_pairs(), st.booleans())
    def test_same_exit_and_line_as_relabelling_search(self, pair, up_to_frame):
        a, b = pair
        flags = ["--up-to-permutation"] + (["--up-to-frame"] if up_to_frame else [])
        want = brute_force_verdict(from_circuit(a), from_circuit(b), up_to_frame)
        assert run_verify(a, b, flags) == want


@st.composite
def sources_with_bare_top_wires(draw):
    """Dialect text whose top wires carry only a Pauli, or only I: the
    compiled circuit has no gate there, so its text names fewer qubits."""
    n = draw(st.integers(2, 4))
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(range(n)))
        lines.append(f"{draw(st.sampled_from(['CX', 'CZ']))} {order[0]} {order[1]}")
        lines += [f"{draw(st.sampled_from(GATES_1Q))} {q}"
                  for q in order[2:] if draw(st.booleans())]
        lines.append("TICK")
    top = draw(st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=3))
    lines += [f"{letter} {n + i}" for i, letter in enumerate(top)]
    return "\n".join(lines) + "\n"


class TestCompiledOutputVerifies:
    """What compile writes, verify accepts: both circuits are read on the
    larger qubit count, where a wire never touched carries the identity."""

    @settings(max_examples=40, deadline=None)
    @given(sources_with_bare_top_wires(), st.sampled_from(["cx", "cz", "sqrt_xx", "ecr"]))
    def test_round_trip(self, text, target):
        with tempfile.TemporaryDirectory() as tmp:
            src, out, meta = (str(Path(tmp, name)) for name in ("s.stim", "o.stim", "m.json"))
            Path(src).write_text(text)
            r = CliRunner().invoke(main, ["compile", "--target", target, src, "-o", out,
                                          "--metadata", meta], catch_exceptions=False)
            assert r.exit_code == 0, r.output
            frame = json.loads(Path(meta).read_text())["frame"]
            r = CliRunner().invoke(main, ["verify", "--up-to-frame", out, src],
                                   catch_exceptions=False)
            assert (r.exit_code, r.output) == (0, f"equivalent up to frame {frame}\n")
            r = CliRunner().invoke(main, ["compile", "--target", target, "--frame", "fold",
                                          src, "-o", out], catch_exceptions=False)
            assert r.exit_code == 0, r.output
            r = CliRunner().invoke(main, ["verify", out, src], catch_exceptions=False)
            assert (r.exit_code, r.output) == (0, "equivalent\n")

    def test_reported_repro(self, runner, tmp_path):
        src, out, meta = tmp_path / "s.stim", tmp_path / "o.stim", tmp_path / "m.json"
        src.write_text("CX 0 1\nX 2\n")
        r = invoke(runner, "compile", "--target", "ecr", str(src), "-o", str(out),
                   "--metadata", str(meta))
        assert r.exit_code == 0
        assert json.loads(meta.read_text())["frame"] == "+X0*X1*X2"
        assert parse(out.read_text()).n == 2
        r = invoke(runner, "verify", "--up-to-frame", str(out), str(src))
        assert (r.exit_code, r.output) == (0, "equivalent up to frame +X0*X1*X2\n")

    def test_extra_wire_with_a_gate_still_differs(self, runner, tmp_path):
        a, b = tmp_path / "a.stim", tmp_path / "b.stim"
        a.write_text("CX 0 1\n")
        b.write_text("CX 0 1\nH 2\n")
        r = invoke(runner, "verify", "--up-to-frame", str(a), str(b))
        assert r.exit_code == 1
        assert r.output == (f"not equivalent: generator X2 maps to +X2 in {a} "
                            f"but to +Z2 in {b}\n")


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

    def test_show_tableau_over_limit_exit_3(self, runner, tmp_path, no_tableaux):
        from recliff.cli import MAX_SHOWN_QUBITS

        src = tmp_path / "wide.stim"
        src.write_text(f"H {MAX_SHOWN_QUBITS}\n")
        r = invoke(runner, "compile", "--target", "ecr", "--show-tableau", str(src))
        assert r.exit_code == 3
        assert r.output == (f"{src}: {MAX_SHOWN_QUBITS + 1} qubits exceeds the "
                            f"--show-tableau limit of {MAX_SHOWN_QUBITS}\n")

    def test_show_tableau_at_limit_runs(self, runner, six_qubits, monkeypatch):
        monkeypatch.setattr("recliff.cli.MAX_SHOWN_QUBITS", 6)
        r = invoke(runner, "compile", "--target", "ecr", "--show-tableau", str(six_qubits))
        assert r.exit_code == 0
        assert "# compiled tableau" in r.output
        monkeypatch.setattr("recliff.cli.MAX_SHOWN_QUBITS", 5)
        r = invoke(runner, "compile", "--target", "ecr", "--show-tableau", str(six_qubits))
        assert r.exit_code == 3

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

    @pytest.mark.parametrize("args", [
        ["compile", "--target", "ecr"], ["verify", "{ok}"], ["stats"], ["compare", "{ok}"],
    ], ids=lambda a: a[0])
    def test_target_too_long_exit_2(self, runner, tmp_path, args):
        ok, src = tmp_path / "ok.stim", tmp_path / "long.stim"
        ok.write_text("H 0\n")
        src.write_text(f"H 0\nTICK\nCX 1 {HUGE_TARGETS[1]}\n")
        r = invoke(runner, *[a.format(ok=ok) for a in args], str(src))
        assert r.exit_code == 2
        assert r.output == (f"parse error in {src}: "
                            "line 3: qubit target of 4301 digits is too long\n")

    def test_count_too_large_to_print_exit_3(self, runner, tmp_path):
        src = tmp_path / "big.stim"
        src.write_text(f"H {HUGE_TARGETS[0]}\n")
        r = invoke(runner, "compile", "--target", "ecr", str(src))
        assert r.exit_code == 3
        assert r.output == f"{src}: 2^64 or more qubits exceeds --max-qubits 32768\n"

    def test_non_ascii_target_exit_2(self, runner, tmp_path):
        src = tmp_path / "bad.stim"
        src.write_text("H \uff11\n", encoding="utf-8")
        r = invoke(runner, "compile", "--target", "ecr", str(src))
        assert r.exit_code == 2
        assert r.output.count("\n") == 1 and "non-ASCII" in r.output


class TestFileAndStdinReadAlike:
    """A file and stdin holding the same bytes get the same verdict: both are
    read as bytes and decoded as strict UTF-8, whatever the locale."""

    CR = b"H 0\rH 1\n"

    def test_carriage_return_in_file_exit_2(self, runner, tmp_path):
        src = tmp_path / "cr.stim"
        src.write_bytes(self.CR)
        r = invoke(runner, "stats", str(src))
        assert r.exit_code == 2
        assert r.output.startswith(f"parse error in {src}: line 1: malformed qubit target")

    def test_carriage_return_on_stdin_exit_2(self, runner):
        r = invoke(runner, "stats", "-", input=self.CR)
        assert r.exit_code == 2
        assert r.output.startswith("parse error in -: line 1: malformed qubit target")

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_invalid_utf8_in_comment_under_c_locale(self, tmp_path, via):
        # CliRunner decodes input itself, so the locale's decoding of stdin
        # shows only in a real process.
        data = b"H 0 # \xff\n"
        src = tmp_path / "bad.stim"
        src.write_bytes(data)
        arg = str(src) if via == "file" else "-"
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
        env.update(LC_ALL="C", PYTHONPATH=str(Path(recliff.__file__).resolve().parents[1]))
        r = subprocess.run(
            [sys.executable, "-c", "from recliff.cli import main; main()", "stats", arg],
            input=data, capture_output=True, env=env, timeout=60,
        )
        assert r.returncode == 2
        assert r.stderr == f"cannot read {arg}: not valid UTF-8 at byte 6\n".encode()
        assert r.stdout == b""

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


class TestArgumentSpellings:
    """Options read as they did under click: ``--opt value`` and
    ``--opt=value`` alike, ``-o`` for ``--output``, options between inputs."""

    @pytest.fixture
    def src(self, tmp_path):
        path = tmp_path / "src.stim"
        path.write_text(WORKED_EXAMPLE_TEXT)
        return str(path)

    @pytest.mark.parametrize("spelling", [
        ("--target", "ecr", "--natives", "class6", "--frame", "fold", "-o", "{out}"),
        ("--target=ecr", "--natives=class6", "--frame=fold", "--output={out}"),
        ("{src}", "--output", "{out}", "--frame", "fold", "--natives", "class6",
         "--target", "ecr"),
        ("--target", "ecr", "-o{out}", "--natives", "class6", "--frame", "fold"),
    ], ids=["spaced", "equals", "options-last", "short-attached"])
    def test_spellings_write_the_same_circuit(self, runner, src, tmp_path, spelling):
        want = tmp_path / "want.stim"
        r = invoke(runner, "compile", "--target", "ecr", "--natives", "class6", "--frame",
                   "fold", src, "--output", str(want))
        assert r.exit_code == 0, r.output
        out = tmp_path / "out.stim"
        args = [a.format(src=src, out=out) for a in spelling]
        if "{src}" not in spelling:
            args.append(src)
        r = invoke(runner, "compile", *args)
        assert r.exit_code == 0, r.output
        assert out.read_bytes() == want.read_bytes()

    def test_options_between_batch_inputs(self, runner, src, tmp_path):
        other = tmp_path / "other.stim"
        other.write_text("CX 0 1\n")
        outs = [tmp_path / "src.ecr.stim", tmp_path / "other.ecr.stim"]
        r = invoke(runner, "compile", "--target", "ecr", src, str(other))
        assert r.exit_code == 0, r.output
        want = [out.read_bytes() for out in outs]
        for out in outs:
            out.unlink()
        r = invoke(runner, "compile", src, "--target", "ecr", str(other))
        assert r.exit_code == 0, r.output
        assert r.stderr == f"{src} -> {outs[0]}\n{other} -> {outs[1]}\n"
        assert [out.read_bytes() for out in outs] == want

    def test_option_between_verify_files(self, runner, src):
        r = invoke(runner, "verify", src, "--up-to-frame", src)
        assert (r.exit_code, r.output) == (0, "equivalent up to frame +I\n")

    def test_double_dash_ends_options(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("-x.stim").write_text("CX 0 1\n")
        r = invoke(runner, "compile", "--target", "ecr", "--output=-y.stim", "--", "-x.stim")
        assert r.exit_code == 0, r.output
        assert Path("-y.stim").read_text() == "ECR 0 1\nTICK\nS 0\nSQRT_X 1\n"
        r = invoke(runner, "stats", "--format", "csv", "--", "-x.stim")
        assert (r.exit_code, r.output) == (0, "name,count\nCX,1\n")

    @pytest.mark.parametrize("command,options", [
        ("compile", ["--target", "--natives", "--frame", "--iswap-heuristic", "--expand-ecr",
                     "--show-tableau", "--output", "-o", "--metadata", "--max-qubits",
                     "--help"]),
        ("verify", ["--up-to-frame", "--up-to-permutation", "--max-qubits", "--help"]),
    ])
    def test_help_names_every_option(self, runner, command, options):
        r = invoke(runner, command, "--help")
        assert r.exit_code == 0
        named = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", r.output))
        assert set(options) <= named


class TestArgumentsCheckedBeforeInput:
    """Argument clashes exit 3 with one line before any input is read."""

    @pytest.fixture
    def no_reads(self, monkeypatch):
        import recliff.cli

        def refuse(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(recliff.cli, "_read_text", refuse)

    @pytest.mark.parametrize("args", [
        ("verify", "-", "-"),
        ("compare", "-", "-"),
        ("compile", "--target", "ecr", "-", "-"),
    ], ids=["verify", "compare", "compile"])
    def test_stdin_given_twice(self, runner, tmp_path, monkeypatch, no_reads, args):
        monkeypatch.chdir(tmp_path)
        r = invoke(runner, *args, input="CX 0 1\n")
        assert r.exit_code == 3
        assert r.output == "stdin (-) can be given as only one input\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("inputs", [("-", "b.stim"), ("b.stim", "-")])
    def test_stdin_among_several_compile_inputs(self, runner, tmp_path, monkeypatch,
                                                no_reads, inputs):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "b.stim").write_text("CX 0 1\n")
        r = invoke(runner, "compile", "--target", "ecr", *inputs, input="CX 0 1\n")
        assert r.exit_code == 3
        assert r.output == "stdin (-) can only be compiled as the single input\n"
        assert not list(tmp_path.glob("-.*.stim"))
        assert not list(tmp_path.glob("b.*.stim"))

    @pytest.mark.parametrize("output", [None, "-"], ids=["no-output", "output-stdout"])
    def test_metadata_and_circuit_both_on_stdout(self, runner, tmp_path, monkeypatch,
                                                 output):
        import recliff.cli

        def refuse(*args, **kwargs):
            raise AssertionError("compiled")

        monkeypatch.setattr(recliff.cli, "compile_circuit", refuse)
        src = tmp_path / "a.stim"
        src.write_text("CX 0 1\n")
        out = () if output is None else ("-o", output)
        r = invoke(runner, "compile", "--target", "ecr", str(src), *out, "--metadata", "-")
        assert r.exit_code == 3
        assert r.output == ("--metadata - needs --output to name a file: "
                            "both would go to stdout\n")

    @pytest.mark.parametrize("metadata", ["{abs}", "same.out", "./sub/../same.out"],
                             ids=["same-spelling", "relative", "dotted"])
    def test_output_and_metadata_name_one_file(self, runner, tmp_path, monkeypatch,
                                               no_reads, metadata):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        out = str(tmp_path / "same.out")
        r = invoke(runner, "compile", "--target", "ecr", "a.stim", "-o", out,
                   "--metadata", metadata.format(abs=out))
        assert r.exit_code == 3
        assert r.output == f"--output and --metadata name the same file: {out}\n"
        assert not (tmp_path / "same.out").exists()

    @pytest.mark.parametrize("inputs,line", [
        (("a.stim", "a.txt"), "a.txt -> a.ecr.stim would overwrite the output of a.stim"),
        (("a.ecr.stim", "a.ecr"), "a.ecr -> a.ecr.stim would overwrite input a.ecr.stim"),
        (("a.stim", "./sub/../a.stim"),
         "./sub/../a.stim -> sub/../a.ecr.stim would overwrite the output of a.stim"),
        ((".", "a.stim"), "cannot name a batch output: PosixPath('.') has an empty name"),
    ], ids=["two-inputs-one-output", "output-is-an-input", "dotted", "empty-name"])
    def test_batch_outputs_clash(self, runner, tmp_path, monkeypatch, no_reads, inputs, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        r = invoke(runner, "compile", "--target", "ecr", *inputs)
        assert r.exit_code == 3
        assert r.output == line + "\n"
        assert not list(tmp_path.glob("*.ecr*"))

    @pytest.mark.parametrize("args", [
        ("compile", "--target", "ecr", "--bogus", "a.stim"),
        ("compile", "--target", "bogus", "a.stim"),
        ("compile", "a.stim"),
        ("compile", "--target", "ecr", "--max-qubits", "-1", "a.stim"),
        ("verify", "--max-qubits", "-1", "a.stim", "a.stim"),
        ("compile", "--targ", "ecr", "a.stim"),
        ("compile", "-h", "--target", "ecr", "a.stim"),
        ("verify", "a.stim", "a.stim", "a.stim"),
        ("compile", "--target", "ecr", "--max-qubits", "abc", "a.stim"),
        ("verify", "--max-qubits", "abc", "a.stim", "a.stim"),
    ], ids=["unknown-option", "bad-choice", "missing-target", "negative-max-qubits",
            "verify-negative-max-qubits", "abbreviation", "short-help", "extra-argument",
            "non-integer-max-qubits", "verify-non-integer-max-qubits"])
    def test_usage_error_exit_2(self, runner, tmp_path, monkeypatch, no_reads, args):
        monkeypatch.chdir(tmp_path)
        r = invoke(runner, *args)
        assert r.exit_code == 2
        assert r.stdout == "" and "error:" in r.stderr.lower()
        assert not list(tmp_path.iterdir())
        if "abc" in args:  # the message names the option's rule, not a private name
            assert r.stderr.endswith("argument --max-qubits: 'abc' is not an integer >= 0\n")

    def test_metadata_on_stdout_with_output_file(self, runner, tmp_path):
        src, out = tmp_path / "a.stim", tmp_path / "a.ecr.stim"
        src.write_text("CX 0 1\n")
        r = invoke(runner, "compile", "--target", "ecr", str(src), "-o", str(out),
                   "--metadata", "-")
        assert r.exit_code == 0
        assert json.loads(r.output)["verified"] is True
        assert out.read_text().startswith("ECR 0 1")


class TestGenerateSizeGuard:
    """Generated circuits are held to the default qubit limit before any gate exists."""

    class Built(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_generators(self, monkeypatch):
        import recliff.cli

        def refuse(spec):
            raise self.Built(spec)

        monkeypatch.setattr(recliff.cli, "random_clifford_circuit", refuse)
        monkeypatch.setattr(recliff.cli, "surface_code_syndrome_extraction", refuse)

    def test_random_over_limit(self, runner):
        from recliff.cli import DEFAULT_MAX_QUBITS

        r = invoke(runner, "generate", "random-clifford", "--qubits",
                   str(DEFAULT_MAX_QUBITS + 1), "--entanglers", "1")
        assert r.exit_code == 3
        assert r.output == (f"error: {DEFAULT_MAX_QUBITS + 1} qubits exceeds "
                            f"the limit of {DEFAULT_MAX_QUBITS}\n")
        with pytest.raises(self.Built):
            invoke(runner, "generate", "random-clifford", "--qubits",
                   str(DEFAULT_MAX_QUBITS), "--entanglers", "1")

    def test_surface_over_limit(self, runner):
        from recliff.cli import DEFAULT_MAX_QUBITS

        # d = 129 gives 2d^2 - 1 = 33,281 qubits, d = 127 gives 32,257
        assert 2 * 127 ** 2 - 1 <= DEFAULT_MAX_QUBITS < 2 * 129 ** 2 - 1
        r = invoke(runner, "generate", "surface-code", "--distance", "129")
        assert r.exit_code == 3
        assert r.output == f"error: 33281 qubits exceeds the limit of {DEFAULT_MAX_QUBITS}\n"
        r = invoke(runner, "generate", "surface-code", "--distance", "100001")
        assert r.exit_code == 3 and r.output.count("\n") == 1
        with pytest.raises(self.Built):
            invoke(runner, "generate", "surface-code", "--distance", "127")

    def test_random_gate_bound(self, runner):
        from recliff.cli import MAX_GENERATED_GATES

        r = invoke(runner, "generate", "random-clifford", "--qubits", "4",
                   "--entanglers", "100000000")
        assert r.exit_code == 3
        assert r.output == ("error: 4 qubits and 100000000 entangler layers exceed "
                            f"the limit of {MAX_GENERATED_GATES} gates\n")
        # 1024 x (1023 + 1) is exactly the bound, 1024 x (1024 + 1) is over it
        assert MAX_GENERATED_GATES == 1024 * 1024
        r = invoke(runner, "generate", "random-clifford", "--qubits", "1024",
                   "--entanglers", "1024")
        assert r.exit_code == 3 and r.output.count("\n") == 1
        with pytest.raises(self.Built):
            invoke(runner, "generate", "random-clifford", "--qubits", "1024",
                   "--entanglers", "1023")

    def test_invalid_distance_still_named(self, runner):
        r = invoke(runner, "generate", "surface-code", "--distance", "-200")
        assert r.exit_code == 3
        assert r.output == "error: distance must be an odd integer >= 3\n"


class TestUnwritableOutput:
    """A path that cannot be written exits 2 with one line, like one that
    cannot be read; exit 1 stays reserved for an inequivalent verify."""

    @pytest.fixture
    def src(self, tmp_path):
        p = tmp_path / "a.stim"
        p.write_text("CX 0 1\n")
        return str(p)

    @pytest.fixture
    def bad(self, tmp_path):
        return str(tmp_path / "missing" / "out")

    def check(self, r, bad):
        assert r.exit_code == 2
        assert r.output == f"cannot write {bad}: No such file or directory\n"

    def test_compile_output(self, runner, src, bad):
        self.check(invoke(runner, "compile", "--target", "ecr", src, "-o", bad), bad)

    def test_compile_metadata(self, runner, src, bad, tmp_path):
        out = tmp_path / "a.ecr.stim"
        r = invoke(runner, "compile", "--target", "ecr", src, "-o", str(out),
                   "--metadata", bad)
        self.check(r, bad)

    def test_compile_batch(self, runner, src, tmp_path):
        other = tmp_path / "b.stim"
        other.write_text("CZ 0 1\n")
        (tmp_path / "b.ecr.stim").mkdir()
        r = invoke(runner, "compile", "--target", "ecr", src, str(other))
        assert r.exit_code == 2
        assert r.output.splitlines()[-1] == (
            f"cannot write {tmp_path / 'b.ecr.stim'}: Is a directory")

    def test_stats(self, runner, src, bad):
        self.check(invoke(runner, "stats", src, "-o", bad), bad)

    def test_compare(self, runner, src, bad):
        self.check(invoke(runner, "compare", src, src, "-o", bad), bad)

    def test_generate_surface_code(self, runner, bad):
        self.check(invoke(runner, "generate", "surface-code", "--distance", "3", "-o", bad),
                   bad)

    def test_generate_random_clifford(self, runner, bad):
        r = invoke(runner, "generate", "random-clifford", "--qubits", "3",
                   "--entanglers", "2", "-o", bad)
        self.check(r, bad)

    @pytest.mark.parametrize("args", [
        ["compile", "--target", "ecr", "{src}"],
        ["verify", "{src}", "{src}", "--up-to-frame"],
        ["--version"],
    ], ids=lambda a: a[0])
    def test_closed_stdout(self, src, args):
        # The pipe's reader is gone before the child writes, so every write
        # to stdout fails: exit 2, one line, not verify's "inequivalent" 1.
        # Buffered stdout, so that nothing is left to fail at exit.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(recliff.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-c", "from recliff.cli import main; main()",
                 *[a.format(src=src) for a in args]],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (r.returncode, r.stderr) == (2, b"cannot write -: Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.filterwarnings("error")
    def test_write_fails_after_the_open(self, runner, src, opened):
        r = invoke(runner, "compile", "--target", "ecr", src, "-o", "/dev/full")
        assert r.exit_code == 2
        assert r.output == "cannot write /dev/full: No space left on device\n"
        assert opened.unclosed() == []


class OpenRecorder:
    """Wraps ``os.open`` and ``os.close`` to record each path, its flags and
    whether its descriptor was closed."""

    def __init__(self, monkeypatch):
        self.calls, self.closed = [], set()
        real_open, real_close = os.open, os.close

        def recording_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            self.calls.append((os.fspath(path), flags, fd))
            return fd

        def recording_close(fd):
            self.closed.add(fd)
            real_close(fd)

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "close", recording_close)

    def unclosed(self):
        return [path for path, _, fd in self.calls if fd not in self.closed]


@pytest.fixture
def opened(monkeypatch):
    return OpenRecorder(monkeypatch)


class TestOutputsRewrittenInPlace:
    """Every file output is written over the old bytes and then cut to its new
    length, never truncated to zero first: the bytes are exactly those a fresh
    file gets, whatever the file held before."""

    COMMANDS = {
        "compile": ("compile", "--target", "ecr", "{src}", "-o", "{out}"),
        "compile-metadata": ("compile", "--target", "ecr", "{src}", "-o", "{side}",
                             "--metadata", "{out}"),
        "generate-surface": ("generate", "surface-code", "--distance", "3", "-o", "{out}"),
        "generate-random": ("generate", "random-clifford", "--qubits", "5",
                            "--entanglers", "4", "-o", "{out}"),
        "stats": ("stats", "{src}", "-o", "{out}"),
        "stats-csv": ("stats", "{src}", "--format", "csv", "-o", "{out}"),
        "compare": ("compare", "{src}", "{src}", "-o", "{out}"),
    }

    @pytest.fixture
    def run(self, runner, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text(WORKED_EXAMPLE_TEXT)

        def run(command, out):
            args = [a.format(src=src, side=tmp_path / "side.stim", out=out)
                    for a in self.COMMANDS[command]]
            r = invoke(runner, *args)
            assert r.exit_code == 0, r.output
            return r

        return run

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_longer_old_file_holds_exactly_the_new_bytes(self, run, tmp_path, command):
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        run(command, fresh)
        expected = fresh.read_bytes()
        assert expected
        old.write_bytes(b"#" * (2 * len(expected) + 4096))
        run(command, old)
        assert old.read_bytes() == expected

    def test_batch_outputs_are_cut(self, runner, tmp_path):
        inputs = [tmp_path / "a.stim", tmp_path / "b.stim"]
        for path in inputs:
            path.write_text(WORKED_EXAMPLE_TEXT)
        outs = [tmp_path / "a.ecr.stim", tmp_path / "b.ecr.stim"]
        invoke(runner, "compile", "--target", "ecr", *map(str, inputs))
        expected = [out.read_bytes() for out in outs]
        for out in outs:
            out.write_bytes(b"#" * 100_000)
        assert invoke(runner, "compile", "--target", "ecr", *map(str, inputs)).exit_code == 0
        assert [out.read_bytes() for out in outs] == expected

    def test_short_writes_are_resumed(self, run, tmp_path, monkeypatch):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        run("generate-surface", fresh)
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        run("generate-surface", out)
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_dev_null(self, run, command):
        run(command, "/dev/null")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_no_open_truncates(self, run, tmp_path, opened, command):
        out = tmp_path / "out"
        out.write_bytes(b"#" * 100_000)
        run(command, out)
        assert str(out) in [path for path, _, _ in opened.calls]
        assert [path for path, flags, _ in opened.calls if flags & os.O_TRUNC] == []
        assert opened.unclosed() == []


class TestFuzzedInput:
    """Mutated dialect files on every command that reads circuits: a
    documented exit code, at most one line on stderr and no traceback."""

    @pytest.fixture(scope="class")
    def other(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "other.stim"
        path.write_text("CX 0 1\nTICK\nH 0\n")
        return str(path)

    COMMANDS = {
        "compile": ["compile", "--max-qubits", "64", "--target", "ecr", "-"],
        "compile-swap": ["compile", "--max-qubits", "64", "--target", "iswap",
                         "--iswap-heuristic", "--frame", "fold", "-"],
        "verify": ["verify", "--max-qubits", "64", "--up-to-frame", "-", "{other}"],
        "stats": ["stats", "-"],
        "compare": ["compare", "{other}", "-"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @settings(max_examples=60, deadline=None)
    @given(data=mutated_texts())
    def test_exit_code_and_one_line(self, command, other, data):
        args = [a.format(other=other) for a in self.COMMANDS[command]]
        r = CliRunner().invoke(main, args, input=data)
        assert r.exception is None or isinstance(r.exception, SystemExit), r.exc_info
        assert r.exit_code in (0, 1, 2, 3, 4)
        assert r.stderr.count("\n") <= 1 and "Traceback" not in r.output


def test_library_imports_without_numpy():
    src = Path(recliff.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import recliff.cli, sys; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("module", ["click", "dataclasses", "inspect", "csv"])
def test_cli_imports_without(module):
    # -S: no site-packages .pth file can import the module first.
    src = Path(recliff.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import recliff.cli; "
            f"sys.exit({module!r} in sys.modules)")
    assert subprocess.run([sys.executable, "-S", "-c", code]).returncode == 0


def test_ctrl_c_exits_130_with_one_line(monkeypatch, capsys, tmp_path):
    import recliff.cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(recliff.cli, "compile_circuit", interrupt)
    src = tmp_path / "a.stim"
    src.write_text("CX 0 1\n")
    with pytest.raises(SystemExit) as exit_:
        main(["compile", "--target", "ecr", str(src)])
    assert exit_.value.code == 130
    assert capsys.readouterr() == ("", "interrupted\n")
