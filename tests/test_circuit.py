import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recliff import (
    Circuit,
    Instruction,
    ParseError,
    RandomCircuitSpec,
    builtin,
    builtin_gateset,
    compile_with_iswap_heuristic,
    depth,
    emit,
    expand_ecr,
    from_circuit,
    gate_counts,
    parse,
    random_clifford_circuit,
    two_qubit_count,
)
import recliff.circuit as circuit_module
import recliff.tableau as tableau_module
from recliff.circuit import _BULK_LINES, DIALECT_GATES, _circuit, _instruction
from recliff.tableau import certify

from conftest import (
    GATES_1Q, GATES_2Q, HUGE_TARGETS, WORKED_EXAMPLE_TEXT, dialect_texts, mutated_texts,
    oracle_parse, unchecked_circuit,
)
from test_golden import golden_sources

SRC = Path(__file__).resolve().parents[1] / "src"


# The parser and emitter as they were before the one-lookup-per-line
# rewrite, kept as references: the library's must agree with them on
# every text, error messages included.

_ALIASES = {"CNOT": "CX"}


def reference_parse(text: str) -> Circuit:
    layers: list[list[Instruction]] = [[]]
    used: set[int] = set()
    max_q = -1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if not line.isascii():
            raise ParseError(f"line {lineno}: non-ASCII character outside a comment")
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        name = tokens[0]
        if name == "TICK":
            if len(tokens) > 1:
                raise ParseError(f"line {lineno}: TICK takes no arguments")
            layers.append([])
            used = set()
            continue
        if name.split("(", 1)[0] == "QUBIT_COORDS":
            continue
        if "(" in name:
            raise ParseError(f"line {lineno}: parametric gate {name!r} not supported")
        name = _ALIASES.get(name, name)
        if name not in DIALECT_GATES:
            raise ParseError(f"line {lineno}: unknown or unsupported gate {name!r}")
        gate = builtin(name)
        if not all(tok.isdigit() for tok in tokens[1:]):
            raise ParseError(f"line {lineno}: malformed qubit target in {line!r}")
        targets = [int(tok) for tok in tokens[1:]]
        if not targets:
            raise ParseError(f"line {lineno}: {name} needs at least one target")
        if gate.arity == 1:
            groups = [(q,) for q in targets]
        else:
            if len(targets) % 2 != 0:
                raise ParseError(f"line {lineno}: odd number of targets for {name}")
            groups = [tuple(targets[i : i + 2]) for i in range(0, len(targets), 2)]
        for qs in groups:
            if len(set(qs)) != len(qs):
                raise ParseError(f"line {lineno}: repeated qubit within a pair")
            for q in qs:
                if q in used:
                    raise ParseError(f"line {lineno}: qubit {q} reused within a layer")
                used.add(q)
                max_q = max(max_q, q)
            layers[-1].append(_instruction(gate, qs))
    return Circuit(max_q + 1, layers)


def reference_emit(c: Circuit) -> str:
    if c.is_empty():
        return ""
    blocks = []
    for layer in c.layers:
        blocks.append("\n".join(str(inst) for inst in layer))
    return "\nTICK\n".join(blocks) + "\n"


def outcome(parser, text):
    """What parsing gives: the circuit, or the error's type and message."""
    try:
        return parser(text)
    except ValueError as exc:
        return type(exc), str(exc)


class TestParse:
    def test_two_layers(self):
        c = parse("H 0\nTICK\nCX 0 1")
        assert depth(c) == 2
        assert sum(1 for _ in c.instructions()) == 2
        assert c.n == 2

    def test_worked_example_instruction_count(self):
        c = parse(WORKED_EXAMPLE_TEXT)
        assert sum(1 for _ in c.instructions()) == 6
        assert c.n == 4
        assert gate_counts(c) == {"H": 2, "CX": 4}
        assert depth(c) == 5

    def test_parametric_gate_rejected(self):
        with pytest.raises(ParseError, match="parametric"):
            parse("RX(0.3) 0")

    def test_unknown_gate_rejected(self):
        with pytest.raises(ParseError):
            parse("FOO 0")

    def test_measurement_rejected(self):
        with pytest.raises(ParseError):
            parse("M 0")

    def test_qubit_reuse_within_layer(self):
        with pytest.raises(ParseError, match="reused"):
            parse("H 0\nS 0")

    def test_pair_splitting(self):
        c = parse("CX 0 1 2 3")
        layer = c.layers[0]
        assert [inst.qubits for inst in layer] == [(0, 1), (2, 3)]

    def test_multi_target_single_qubit(self):
        c = parse("H 0 3 5")
        assert gate_counts(c) == {"H": 3}
        assert c.n == 6

    def test_odd_pair_count(self):
        with pytest.raises(ParseError):
            parse("CX 0 1 2")

    def test_repeated_qubit_in_pair(self):
        with pytest.raises(ParseError):
            parse("CX 1 1")

    def test_qubit_coords_and_comments_ignored(self):
        c = parse("QUBIT_COORDS(0, 1) 0\n# a comment\nH 0  # trailing\n")
        assert gate_counts(c) == {"H": 1}

    def test_cnot_alias(self):
        c = parse("CNOT 0 1")
        assert next(c.instructions()).gate.name == "CX"

    def test_empty_text(self):
        c = parse("")
        assert c.n == 0 and c.is_empty()

    def test_tick_with_arguments_rejected(self):
        with pytest.raises(ParseError):
            parse("TICK 1")

    def test_consecutive_ticks_collapse(self):
        c = parse("H 0\nTICK\nTICK\nS 0")
        assert depth(c) == 2

    @pytest.mark.parametrize("text", [
        "H \u0661",       # Arabic-Indic digit one
        "H \uff11",       # fullwidth digit one
        "H \u00b9",       # superscript one
        "H 1_0",          # int() reads this as 10
        "H +1",
        "H -1",
        "H 0x1",
        "H\u00a00",       # no-break space as the separator
        "H 0\u00a0",
        "H 0\u2028H 1",   # a line separator other than \n
        "H 0\x85",
    ])
    def test_targets_outside_ascii_decimal_rejected(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_non_ascii_comment_accepted(self):
        c = parse("# q\u00fcbit \u2028 \u0661\nH 0  # \u00e9\n")
        assert gate_counts(c) == {"H": 1} and c.n == 1

    def test_crlf_line_endings(self):
        assert parse("H 0\r\nTICK\r\nCX 0 1\r\n") == parse("H 0\nTICK\nCX 0 1\n")

    def test_leading_zeros_are_decimal(self):
        assert parse("H 007").n == 8

    def test_target_past_the_int_conversion_limit(self):
        assert parse(f"H {HUGE_TARGETS[0]}").n == 10**4300
        assert parse(f"H 0\nCX 1 {'0' * 4299}3\n").n == 4
        for text in (f"H 0\nTICK\nCX 1 {HUGE_TARGETS[1]}", f"CX 1 {HUGE_TARGETS[2]} 2 4\n"):
            with pytest.raises(ParseError,
                               match=r"^line \d: qubit target of \d+ digits is too long$"):
                parse(text)


class TestAgainstReference:
    """parse and emit match the references above, case by case."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dialect_texts(), mutated_texts().map(
        lambda data: data.decode("utf-8", errors="replace"))))
    def test_parse(self, text):
        want = outcome(reference_parse, text)
        if isinstance(want, tuple) and want[0] is ValueError:
            # The reference let Python's int() limit escape as a bare ValueError.
            assert "integer string conversion" in want[1]
            with pytest.raises(ParseError, match="too long"):
                parse(text)
        else:
            assert outcome(parse, text) == want

    @settings(max_examples=100, deadline=None)
    @given(dialect_texts())
    def test_emit_of_parsed(self, text):
        c = outcome(parse, text)
        if isinstance(c, Circuit):
            assert emit(c) == reference_emit(c)
            assert parse(emit(c)) == c

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_emit_of_constructed(self, data):
        n = data.draw(st.integers(0, 8))
        layers = []
        for _ in range(data.draw(st.integers(0, 4))):
            free = data.draw(st.permutations(range(n)))
            layer = []
            while data.draw(st.booleans()):
                gate = builtin(data.draw(gate_names))
                if gate.arity > len(free):
                    break
                layer.append(Instruction(gate, tuple(free[:gate.arity])))
                free = free[gate.arity:]
            layers.append(tuple(layer))
        c = Circuit(n, tuple(layers))
        assert emit(c) == reference_emit(c)


class TestEmit:
    def test_empty_circuit(self):
        assert emit(Circuit(0, ())) == ""

    def test_round_trip_worked_example(self):
        c = parse(WORKED_EXAMPLE_TEXT)
        assert parse(emit(c)) == c

    def test_round_trip_random(self):
        for seed in range(100):
            spec = RandomCircuitSpec(
                n=2 + seed % 5,
                entangler_layers=seed % 4,
                seed=seed,
                entangler=builtin("CX" if seed % 2 else "ISWAP"),
            )
            c = random_clifford_circuit(spec)
            assert parse(emit(c)) == c

    def test_round_trip_preserves_tableau(self):
        spec = RandomCircuitSpec(n=4, entangler_layers=3, seed=7, entangler=builtin("CZ"))
        c = random_clifford_circuit(spec)
        assert from_circuit(parse(emit(c))) == from_circuit(c)

    def test_ecr_native_emission(self):
        c = parse("ECR 0 1")
        assert emit(c) == "ECR 0 1\n"


class TestExpandEcr:
    def test_expansion_structure(self):
        c = parse("ECR 0 1")
        e = expand_ecr(c)
        assert depth(e) == 3
        assert gate_counts(e) == {"S": 1, "SQRT_X": 1, "CX": 1, "X": 1}
        assert from_circuit(e) == from_circuit(c)

    def test_rider_instructions_stay_in_middle_layer(self):
        c = parse("ECR 0 1\nH 2")
        e = expand_ecr(c)
        assert depth(e) == 3
        mid = e.layers[1]
        assert {inst.gate.name for inst in mid} == {"CX", "H"}
        assert from_circuit(e) == from_circuit(c)

    def test_non_ecr_circuit_unchanged(self):
        c = parse(WORKED_EXAMPLE_TEXT)
        assert expand_ecr(c) == c


class TestCounts:
    def test_empty(self):
        c = Circuit(0, ())
        assert gate_counts(c) == {}
        assert depth(c) == 0
        assert two_qubit_count(c) == 0

    def test_counts_invariant_under_layer_order(self):
        h, cx = builtin("H"), builtin("CX")
        a = Circuit(4, ((Instruction(h, (0,)), Instruction(cx, (1, 2))),))
        b = Circuit(4, ((Instruction(cx, (1, 2)), Instruction(h, (0,))),))
        assert a == b
        assert gate_counts(a) == gate_counts(b)
        assert depth(a) == depth(b)


class TestLayerValidation:
    def test_duplicate_qubit_in_layer_rejected(self):
        h = builtin("H")
        with pytest.raises(ValueError):
            Circuit(1, ((Instruction(h, (0,)), Instruction(h, (0,))),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Circuit(1, ((Instruction(builtin("H"), (3,)),),))

    def test_empty_layers_dropped(self):
        c = Circuit(1, ((), (Instruction(builtin("H"), (0,)),), ()))
        assert depth(c) == 1

    def test_negative_qubit_count_rejected(self):
        with pytest.raises(ValueError, match="^qubit count must be non-negative$"):
            Circuit(-1, ())

    @pytest.mark.parametrize("n", [2.5, True, "2", None])
    def test_non_integer_qubit_count_rejected(self, n):
        with pytest.raises(TypeError):
            Circuit(n, ())

    def test_integer_like_qubit_count_read_as_int(self):
        c = Circuit(np.int64(2), ((Instruction(builtin("CX"), (0, 1)),),))
        assert type(c.n) is int and c == Circuit(2, c.layers)


class TestInstructionValues:
    """The public constructor stores int qubits in a tuple, as the parser
    and emit do, or raises."""

    @pytest.mark.parametrize("qubits", [(False, True), (0.0, 1), (0, 1.0), ("0", 1), (None, 1)])
    def test_non_integer_qubits_rejected(self, qubits):
        with pytest.raises(TypeError):
            Instruction(builtin("CX"), qubits)

    def test_integer_like_qubits_read_as_ints(self):
        inst = Instruction(builtin("CX"), [np.int64(0), 1])
        assert inst.qubits == (0, 1) and all(type(q) is int for q in inst.qubits)
        assert str(inst) == "CX 0 1"
        assert parse(emit(Circuit(2, ((inst,),)))) == Circuit(2, ((inst,),))


# The checks the public constructors make, restated as predicates: pipeline
# stages skip them, so the constructors must keep rejecting all of this.


def malformed_instruction(gate, qubits) -> bool:
    return (len(qubits) != gate.arity or len(set(qubits)) != len(qubits)
            or any(q < 0 for q in qubits))


def malformed_layers(n, layers) -> bool:
    if n < 0:
        return True
    for layer in layers:
        qubits = [q for inst in layer for q in inst.qubits]
        if len(set(qubits)) != len(qubits) or any(q >= n for q in qubits):
            return True
    return False


gate_names = st.sampled_from(sorted(DIALECT_GATES))


@st.composite
def any_instructions(draw):
    return builtin(draw(gate_names)), tuple(draw(st.lists(st.integers(-3, 6), max_size=3)))


@st.composite
def valid_instructions(draw, max_q=6):
    gate = builtin(draw(gate_names))
    qubits = draw(st.lists(st.integers(0, max_q), min_size=gate.arity,
                           max_size=gate.arity, unique=True))
    return Instruction(gate, tuple(qubits))


class TestPublicConstructorsStillCheck:
    @settings(max_examples=300, deadline=None)
    @given(any_instructions())
    def test_instruction(self, parts):
        gate, qubits = parts
        if malformed_instruction(gate, qubits):
            with pytest.raises(ValueError):
                Instruction(gate, qubits)
        else:
            assert Instruction(gate, qubits).qubits == qubits

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2, 7), st.lists(st.lists(valid_instructions(), max_size=4), max_size=4))
    def test_circuit(self, n, layers):
        layers = tuple(map(tuple, layers))
        if malformed_layers(n, layers):
            with pytest.raises(ValueError):
                Circuit(n, layers)
        else:
            c = Circuit(n, layers)
            assert sum(map(len, c.layers)) == sum(map(len, layers))


def instruction_layers(text: str) -> tuple:
    """The layers of emit's text as instruction tuples sorted by qubits, the
    form ``Circuit.layers`` had when it was stored."""
    return tuple(tuple(sorted((Instruction(builtin(name), tuple(map(int, qubits)))
                               for name, *qubits in map(str.split, chunk.splitlines())),
                              key=lambda inst: inst.qubits))
                 for chunk in text.split("TICK\n") if chunk.strip())


class TestColumnLayers:
    """A circuit keeps columns; ``layers``, equality, hash, copy and pickle
    read as they did on stored instruction tuples, whoever built it."""

    def assert_same(self, c: Circuit) -> None:
        assert c.layers == instruction_layers(emit(c))
        read = parse(emit(c))
        for other in ([read] if read.n == c.n else []) + [
                Circuit(c.n, c.layers), pickle.loads(pickle.dumps(c)), copy.copy(c),
                copy.deepcopy(c)]:
            assert other == c and hash(other) == hash(c) and other.layers == c.layers

    def test_golden_corpus_and_its_compiles(self):
        for source in golden_sources():
            self.assert_same(source)
            for target in ("ecr", "iswap"):
                out = compile_with_iswap_heuristic(source, builtin_gateset(target)).circuit
                self.assert_same(out)
                self.assert_same(expand_ecr(out))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(valid_instructions(), max_size=6), max_size=5))
    def test_constructed_circuits(self, layers):
        if malformed_layers(7, layers):
            return
        c = Circuit(7, layers)
        assert c.layers == tuple(tuple(sorted(layer, key=lambda inst: inst.qubits))
                                 for layer in layers if layer)
        self.assert_same(c)


# Canonical lines, as emit writes them, and the same lines perturbed: every
# perturbation must send the line down the general path or give the same
# circuit there.  LONG_TARGET is over the lowered int() limit below but
# within the default one.

LOWERED_INT_DIGITS = 640  # the smallest limit sys.set_int_max_str_digits takes
LONG_TARGET = "1" + "0" * LOWERED_INT_DIGITS

_PERTURBATIONS = {
    "double space": lambda line, q: line.replace(" ", "  ", 1),
    "tab": lambda line, q: line.replace(" ", "\t", 1),
    "carriage return": lambda line, q: line + "\r",
    "trailing space": lambda line, q: line + " ",
    "comment": lambda line, q: line + " # note",
    "commented out": lambda line, q: "#" + line,
    "non-ASCII comment": lambda line, q: line + " # q\u00fcbit",
    "leading zeros": lambda line, q: line.replace(" ", " 00", 1),
    "digit separator": lambda line, q: f"{line.split()[0]} {q}_0",
    "signed": lambda line, q: f"{line.split()[0]} {'+-'[q % 2]}{q}",
    "CNOT": lambda line, q: line.replace("CX ", "CNOT ", 1),
    "another target": lambda line, q: f"{line} {q}",
    "another pair": lambda line, q: f"{line} {q} {q + 1}",
    "TICK with a space": lambda line, q: "TICK ",
    "repeated qubit": lambda line, q: f"{line.split()[0]} {q} {q}",
    "unknown name": lambda line, q: "FOO" + line,
    "parametric": lambda line, q: line.replace(" ", "(0.5) ", 1),
    "QUBIT_COORDS": lambda line, q: f"QUBIT_COORDS(1, 2) {q}",
    "4,301 digits": lambda line, q: f"{line.split()[0]} {HUGE_TARGETS[1]}",
    "long target": lambda line, q: f"{line.split()[0]} {LONG_TARGET}",
    "long pair": lambda line, q: f"{line.split()[0]} {q} {LONG_TARGET}",
}


@st.composite
def perturbed_canonical_texts(draw):
    """Text of canonical lines over a few qubits, so qubits are reused within
    layers, with some lines perturbed; and whether to parse it under the
    lowered int() limit."""
    n = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("TICK")
            continue
        gate = builtin(draw(gate_names))
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=gate.arity, max_size=gate.arity))
        line = " ".join([gate.name, *map(str, qubits)])
        if draw(st.integers(0, 3)) == 0:
            line = _PERTURBATIONS[draw(st.sampled_from(sorted(_PERTURBATIONS)))](
                line, draw(st.integers(0, n)))
        lines.append(line)
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return text, draw(st.booleans())


class TestCanonicalBranch:
    """parse takes a shortcut for the lines emit writes; on every text it
    agrees with the parser it replaced, kept as ``oracle_parse``."""

    @settings(max_examples=400, deadline=None)
    @given(perturbed_canonical_texts())
    def test_parse_matches_oracle(self, case):
        text, lowered = case
        limit = sys.get_int_max_str_digits()
        if lowered:
            sys.set_int_max_str_digits(LOWERED_INT_DIGITS)
        try:
            got, want = outcome(parse, text), outcome(oracle_parse, text)
        finally:
            sys.set_int_max_str_digits(limit)
        if isinstance(want, Circuit):
            assert isinstance(got, Circuit) and (got.n, got.layers) == (want.n, want.layers)
        else:
            assert got == want and want[0] is ParseError

    @pytest.mark.parametrize("text,message", [
        ("H 0\nH 0", "line 2: qubit 0 reused within a layer"),
        ("CX 1 1", "line 1: repeated qubit within a pair"),
        ("H 2\nCX 0 2", "line 2: qubit 2 reused within a layer"),
        ("CX 0", "line 1: odd number of targets for CX"),
        (f"H {LONG_TARGET}", f"line 1: qubit target of {len(LONG_TARGET)} digits is too long"),
    ])
    def test_canonical_lines_in_error_name_the_error(self, text, message):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(LOWERED_INT_DIGITS)
        try:
            with pytest.raises(ParseError) as err:
                parse(text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(err.value) == message


# Layers long enough for parse's bulk read: canonical lines of one arity on
# distinct qubits, maybe with one line perturbed, a newline moved to a space
# next to it, or a TICK-like line added.
# A layer ends only at a whole TICK line, so "TICK 3", "XTICK 3" and "TICK "
# inside a layer must not split it.

_NAMES_OF_ARITY = {k: sorted({*(name for name in DIALECT_GATES if builtin(name).arity == k),
                              *(("CNOT",) if k == 2 else ())}) for k in (1, 2)}
_TICK_LIKE = ("XTICK 3", "TICK 3", "TICK ")


@st.composite
def long_layer_texts(draw):
    """Text of one to three layers, each short or of _BULK_LINES to 80
    lines, with perhaps one line perturbed or inserted or one newline moved."""
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        arity = draw(st.sampled_from([1, 2]))
        size = draw(st.one_of(st.integers(1, 4), st.integers(_BULK_LINES, 80)))
        qubits = draw(st.permutations(range(arity * size + 2)))
        lines = [" ".join([draw(st.sampled_from(_NAMES_OF_ARITY[arity])),
                           *map(str, qubits[arity * i:arity * (i + 1)])]) for i in range(size)]
        at = draw(st.integers(0, size - 1))
        change = draw(st.one_of(st.none(), st.sampled_from(
            [*_TICK_LIKE, "moved newline", *sorted(_PERTURBATIONS)])))
        if change in _TICK_LIKE:
            lines.insert(at, change)
        elif change == "moved newline" and size > 1:  # onto the space before or after it
            i = min(at, size - 2)
            if draw(st.booleans()):
                lines[i], moved = lines[i].rsplit(" ", 1)
                lines[i + 1] = f"{moved} {lines[i + 1]}"
            else:
                moved, lines[i + 1] = lines[i + 1].split(" ", 1)
                lines[i] = f"{lines[i]} {moved}"
        elif change in _PERTURBATIONS:
            lines[at] = _PERTURBATIONS[change](lines[at], draw(st.sampled_from(qubits)))
        layers.append("\n".join(lines))
    return "\nTICK\n".join(layers) + draw(st.sampled_from(["", "\n"]))


def outcomes_under_both_int_limits(parser, text):
    limit = sys.get_int_max_str_digits()
    try:
        got = [outcome(parser, text)]
        sys.set_int_max_str_digits(LOWERED_INT_DIGITS)
        got.append(outcome(parser, text))
    finally:
        sys.set_int_max_str_digits(limit)
    return got


def _long_layer(line_30: str, *, arity: int = 1, end: str = "\n") -> str:
    """A short layer, then a 40-line canonical layer (lines 4-43) whose 30th
    line, line 33 of the text, is ``line_30``."""
    lines = [f"{'CX' if arity == 2 else 'H'} {' '.join(map(str, range(arity * i, arity * (i + 1))))}"
             for i in range(40)]
    lines[29] = line_30
    return "H 0\nCX 1 2\nTICK\n" + "\n".join(lines) + end


class TestLayerAtATime:
    """Layers of at least _BULK_LINES canonical lines are read in bulk; every
    text still parses as ``oracle_parse`` does, line numbers included."""

    @settings(max_examples=300, deadline=None)
    @given(long_layer_texts())
    def test_parse_matches_oracle(self, text):
        got = outcomes_under_both_int_limits(parse, text)
        want = outcomes_under_both_int_limits(oracle_parse, text)
        for g, w in zip(got, want):
            if isinstance(w, Circuit):
                assert isinstance(g, Circuit) and (g.n, g.layers) == (w.n, w.layers)
            else:
                assert g == w and w[0] is ParseError

    @pytest.mark.parametrize("text,message", [
        (_long_layer("H 3"), "line 33: qubit 3 reused within a layer"),
        (_long_layer("CX 7 7", arity=2), "line 33: repeated qubit within a pair"),
        (_long_layer("CX 29 5"), "line 33: qubit 5 reused within a layer"),
        (_long_layer("CX 29"), "line 33: odd number of targets for CX"),
        (_long_layer("H 58 3", arity=2), "line 33: qubit 3 reused within a layer"),
        (_long_layer(f"H {HUGE_TARGETS[1]}"), "line 33: qubit target of 4301 digits is too long"),
        (_long_layer("H 29 # note", end="\nH x"), "line 44: malformed qubit target in 'H x'"),
        (_long_layer("H 29", end="\nTICK\nH 0\nTICK\nH x"), "line 47: malformed qubit target in 'H x'"),
    ], ids=["reused", "repeated in a pair", "mixed arity, reused", "mixed arity, odd",
            "several targets, reused", "4,301 digits", "comment, no final newline",
            "after a bulk read"])
    def test_errors_inside_a_long_layer(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message
        assert outcome(oracle_parse, text) == (ParseError, message)

    @pytest.mark.parametrize("text", [
        _long_layer("CX 29 100"),  # mixed arity
        _long_layer("H 29 # note"),
        _long_layer("H 29", end=""),  # no final newline
        _long_layer("CX 58 59", arity=2, end=""),
        _long_layer("CNOT 58 59", arity=2),
        _long_layer(f"H {HUGE_TARGETS[0]}"),
    ], ids=["mixed arity", "comment", "no final newline", "pairs, no final newline", "CNOT",
            "4,300 digits"])
    def test_valid_variants_of_a_long_layer(self, text):
        got, want = parse(text), oracle_parse(text)
        assert (got.n, got.layers) == (want.n, want.layers)

    @pytest.mark.parametrize("arity", [1, 2], ids=["H layer", "CX layer"])
    @pytest.mark.parametrize("line", [
        "H 1_0", "H +41", "H -41", "H \u0663", "H 041", "H  41", "H\t41", " H 41", "H 41\r", "",
        "H 41 # c", "QUBIT_COORDS(1) 41", "H 41 42", "41 H", "CX 80", "CX 80 81 82 83",
        "CNOT 80 81", "CX 80 80",
    ])
    def test_one_line_replaced(self, line, arity):
        text = _long_layer(line, arity=arity)
        assert outcome(parse, text) == outcome(oracle_parse, text)

    @pytest.mark.parametrize("moved", ["CX 58\n59 CX 60 61", "CX 58 59 CX\n60 61"],
                             ids=["to the space before", "to the space after"])
    def test_newline_moved_within_the_layer(self, moved):
        text = _long_layer("CX 58 59", arity=2).replace("CX 58 59\nCX 60 61", moved)
        assert moved in text and outcome(parse, text) == outcome(oracle_parse, text)

    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("lines", [
        lambda layer: layer.replace("\n", "\r\n"),
        lambda layer: layer.replace(" ", "\t"),
        lambda layer: "\n".join(line.replace(" ", "\t").replace("\t", " ", 1)
                                for line in layer.split("\n")),
    ], ids=["crlf", "tabs", "tabs between targets"])
    def test_whole_layer_in_other_whitespace(self, lines, arity):
        short, layer = _long_layer("H 29" if arity == 1 else "CX 58 59", arity=arity).split(
            "\nTICK\n")
        text = f"{short}\nTICK\n{lines(layer)}"
        assert outcome(parse, text) == outcome(oracle_parse, text)

    def test_long_canonical_layers_are_read_in_bulk(self, monkeypatch):
        one = "\n".join(f"{('H', 'S', 'SQRT_X')[q % 3]} {q}" for q in range(_BULK_LINES))
        two = "\n".join(f"{('CX', 'CNOT', 'CZ')[q % 3]} {2 * q + 1} {2 * q}"
                        for q in range(_BULK_LINES))
        text = f"{one}\nTICK\n{two}\nTICK\n{two}\n"
        want = oracle_parse(text)

        def per_line(*args):
            raise AssertionError("a long canonical layer was read line by line")

        monkeypatch.setattr(circuit_module, "_read_lines", per_line)
        got = parse(text)
        assert (got.n, got.layers) == (want.n, want.layers)
        assert [len(layer) for layer in got.layers] == [_BULK_LINES] * 3


# Texts on qubits 0-79 (n = 80 when valid) for the qubit text table: a bulk
# layer of each arity, short layers read line by line, leading zeros,
# QUBIT_COORDS, CRLF and errors inside both kinds of layer.
_ONES = [f"{('H', 'S', 'SQRT_X')[q % 3]} {q}" for q in range(80)]
_PAIRS = [f"{('CX', 'CZ', 'ISWAP')[q % 3]} {2 * q} {2 * q + 1}" for q in range(40)]
_TABLE_TEXTS = {
    "bulk and per-line": "\n".join(_ONES) + "\nTICK\n" + "\n".join(_PAIRS)
                         + "\nTICK\nH 3\nCX 79 5\nTICK\nS 0\n",
    "leading zeros": "\n".join(_ONES[:40] + ["H 040", "H 0079"] + _ONES[42:79])
                     + "\nTICK\nCX 003 07\nH 00\n",
    "qubit coords": "QUBIT_COORDS(1, 2) 79\n" + "\n".join(_ONES[:50])
                    + "\nQUBIT_COORDS(0) 3\n" + "\n".join(_ONES[50:])
                    + "\nTICK\nQUBIT_COORDS 100\nCX 1 79\n",
    "crlf": ("\n".join(_ONES) + "\nTICK\n" + "\n".join(_PAIRS) + "\nTICK\nCX 79 0\n")
            .replace("\n", "\r\n"),
    "reuse in a bulk layer": "\n".join(_ONES[:60] + ["H 7"] + _ONES[60:]) + "\n",
    "reuse per line": "\n".join(_ONES) + "\nTICK\nCX 79 5\nH 5\n",
    "huge target in a bulk layer": "\n".join(_ONES[:70] + [f"H {HUGE_TARGETS[1]}"]) + "\n",
    "malformed per line": "\n".join(_PAIRS) + "\nTICK\nH 79\nCX 1 x\n",
}


def table_of(monkeypatch, size: int) -> None:
    """Make the qubit text table cover exactly the qubits below ``size``."""
    monkeypatch.setattr(circuit_module, "_QUBIT_TEXT", ((), {}))
    circuit_module._qubit_text(size, size)
    assert len(circuit_module._QUBIT_TEXT[0]) == len(circuit_module._QUBIT_TEXT[1]) == size


class TestQubitTextTable:
    """parse and emit read and write qubit indices through one table of
    ``str(q)``; what they give never depends on what the table holds."""

    @pytest.mark.parametrize("size", [0, 79, 80], ids=["empty", "one short", "exact"])
    @pytest.mark.parametrize("name", sorted(_TABLE_TEXTS))
    def test_same_result_whatever_the_table_holds(self, monkeypatch, name, size):
        text = _TABLE_TEXTS[name]
        want = outcome(oracle_parse, text)
        table_of(monkeypatch, size)
        got = outcome(parse, text)
        if not isinstance(want, Circuit):
            assert got == want and want[0] is ParseError
            return
        assert isinstance(got, Circuit) and (got.n, got.layers) == (want.n, want.layers)
        assert want.n == 80
        assert len(circuit_module._QUBIT_TEXT[0]) == 80  # grown by the parse
        table_of(monkeypatch, size)
        assert emit(got) == reference_emit(want)

    def test_every_qubit_of_the_table_reads_back(self, monkeypatch):
        table_of(monkeypatch, 0)
        c = parse("\n".join(_ONES) + "\n")
        text, numbers = circuit_module._QUBIT_TEXT
        assert text == tuple(map(str, range(80)))
        assert numbers == {str(q): q for q in range(80)}
        assert emit(c) == "\n".join(_ONES) + "\n"

    def test_empty_after_import(self):
        code = ("import recliff.cli, recliff.circuit as c; "
                "print(len(c._QUBIT_TEXT[0]), len(c._QUBIT_TEXT[1]))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout == "0 0\n"

    @pytest.mark.parametrize("size", [0, 10])
    def test_few_targets_on_many_qubits_do_not_grow_it(self, monkeypatch, size):
        table_of(monkeypatch, size)
        table = circuit_module._QUBIT_TEXT
        c = parse("H 1000000\n")
        assert c.n == 1000001 and emit(c) == "H 1000000\n"
        assert parse("CX 3 1000\nTICK\nH 1000\n").n == 1001
        assert emit(Circuit(1001, [[Instruction(builtin("CX"), (1000, 7))]])) == "CX 1000 7\n"
        assert circuit_module._QUBIT_TEXT is table

    def test_threads_of_different_sizes(self, monkeypatch):
        """Four threads parse and emit circuits of 10 to 1,500 qubits while each
        grows the table: every result is exact."""
        table_of(monkeypatch, 0)
        texts = [emit(random_clifford_circuit(RandomCircuitSpec(size, 3, size, builtin("CX"))))
                 for size in (10, 150, 700, 1500)]
        wants = [oracle_parse(text) for text in texts]
        start, wrong = threading.Barrier(len(texts)), []

        def work(text, want):
            start.wait()
            for _ in range(15):
                got = parse(text)
                if (got.n, got._columns) != (want.n, want._columns) or emit(got) != text:
                    wrong.append(want.n)
                text_of, number = circuit_module._QUBIT_TEXT  # maybe another thread's
                if (len(number) != len(text_of)
                        or text_of and number[text_of[-1]] != len(number) - 1):
                    wrong.append("a partial table")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=pair) for pair in zip(texts, wants)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


# A layer whose half holds one gate is put in qubit order by its qubit columns
# alone (circuit._circuit); a mixed half by (gate, qubits) rows.  Either way the
# order is that of Circuit.layers, and every entry is kept.

_first = itemgetter(0)
_HALVES = ("one 1q", "one 2q", "mixed 1q", "mixed 2q", "both")


@st.composite
def layer_shapes(draw):
    """Per layer, a gate count on both sides of ``_BULK_LINES`` and a kind of
    halves; and a seed that draws the gates and qubits and shuffles the lines."""
    shapes = draw(st.lists(st.tuples(
        st.one_of(st.integers(1, 2 * _BULK_LINES), st.integers(1, 600)),
        st.sampled_from(_HALVES)), min_size=1, max_size=3))
    return shapes, draw(st.integers(0, 2**32))


def shaped_layers(shapes, rng: random.Random) -> tuple[int, list[list[Instruction]]]:
    n = 2 * max(k for k, _ in shapes) + rng.randrange(3)
    layers = []
    for k, kind in shapes:
        one_1q, one_2q = builtin(rng.choice(GATES_1Q)), builtin(rng.choice(GATES_2Q))
        free = rng.sample(range(n), n)
        layer = []
        for _ in range(k):
            if kind == "one 1q" or kind == "one 2q":
                gate = one_1q if kind == "one 1q" else one_2q
            else:
                arity = {"mixed 1q": 1, "mixed 2q": 2}.get(kind) or rng.choice((1, 2))
                gate = builtin(rng.choice(GATES_1Q if arity == 1 else GATES_2Q))
            layer.append(Instruction(gate, tuple(free.pop() for _ in range(gate.arity))))
        layers.append(layer)
    return n, layers


def half_rows(c: Circuit) -> list:
    """Each layer's halves as (gate, qubits) rows, in column order."""
    return [([*zip(g1, zip(a1))], [*zip(g2, zip(a2, b2))]) for g1, a1, g2, a2, b2 in c._columns]


class TestOneGateSort:
    @settings(max_examples=60, deadline=None)
    @given(layer_shapes())
    def test_shuffled_lines_parse_to_the_columns_of_emit(self, case):
        shapes, seed = case
        rng = random.Random(seed)
        c = Circuit(*shaped_layers(shapes, rng))
        text = emit(c)
        chunks = [chunk.splitlines() for chunk in text.split("TICK\n")]
        for lines in chunks:
            rng.shuffle(lines)
        shuffled = parse("TICK\n".join("\n".join(lines) + "\n" for lines in chunks))
        read = parse(text)
        assert shuffled._columns == read._columns == c._columns
        assert emit(shuffled) == text

    @settings(max_examples=60, deadline=None)
    @given(layer_shapes())
    def test_column_order_is_the_order_of_layers(self, case):
        shapes, seed = case
        rng = random.Random(seed)
        n, layers = shaped_layers(shapes, rng)
        for layer in layers:
            rng.shuffle(layer)
        for c in (Circuit(n, layers), unchecked_circuit(n, layers)):
            assert c.layers == tuple(tuple(sorted(layer, key=lambda inst: inst.qubits))
                                     for layer in layers)
            assert half_rows(c) == [
                ([(inst.gate, inst.qubits) for inst in layer if len(inst.qubits) == 1],
                 [(inst.gate, inst.qubits) for inst in layer if len(inst.qubits) == 2])
                for layer in c.layers]

    @pytest.mark.parametrize("k", [3, 4, _BULK_LINES + 1])
    def test_repeated_first_qubit_keeps_every_pair(self, k):
        """A one-gate two-qubit half that uses its first qubit 3 twice: both pairs
        stay, in the order given, and the tableau names the qubit."""
        cx = builtin("CX")
        a2 = [2 * k + 1 - q for q in range(k - 2)] + [3, 3]
        b2 = [2 * k + 2 + q for q in range(k)]
        c = _circuit(4 * k, [[[], [], [cx] * k, list(a2), list(b2)]])
        rows = sorted(zip(a2, b2), key=_first)
        assert c._columns == ([[], [], [cx] * k, [a for a, _ in rows], [b for _, b in rows]],)
        assert tableau_module._fault(c.n, c._columns) == "qubit 3 used twice in one layer"
        with pytest.raises(ValueError, match="^qubit 3 used twice in one layer$"):
            certify(c, c)

    def test_repeated_qubit_in_a_one_gate_single_qubit_half_is_kept(self):
        h = builtin("H")
        c = _circuit(8, [[[h] * 4, [5, 3, 7, 3], [], [], []]])
        assert c._columns == ([[h] * 4, [3, 3, 5, 7], [], [], []],)
        assert tableau_module._fault(c.n, c._columns) == "qubit 3 used twice in one layer"
