import itertools
import random
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from recliff import (
    Circuit,
    Instruction,
    PauliProduct,
    RandomCircuitSpec,
    SurfaceCodeSpec,
    Tableau,
    append_gate,
    builtin,
    builtin_gateset,
    certify,
    commutes,
    compile_circuit,
    compile_with_iswap_heuristic,
    emit,
    from_circuit,
    identity,
    parse,
    pretty,
    random_clifford_circuit,
    surface_code_syndrome_extraction,
)
from recliff.circuit import DIALECT_GATES, _circuit, _instruction
from recliff.compiler import CompileError
from recliff.gates import NATIVE_SETS, TARGET_ENTANGLERS, GateDef, GateSet
from recliff import tableau as tb
from recliff.tableau import describe_difference
from recliff.cli import main as cli_main

from conftest import (
    CX_IMAGES,
    ECR_IMAGES,
    ECR_SKELETON_IMAGES,
    FAN_OUT_TEXT,
    WORKED_EXAMPLE_IMAGES,
    WORKED_EXAMPLE_TEXT,
    COMPILED_SIGNS,
    GATES_1Q,
    GATES_2Q,
    conjugate_product,
    equal_up_to_sign,
    images_tableau,
    match_wires,
    oracle_certificate,
    reference_lut,
    reference_pauli,
    reference_walk,
    relabelled_pairs,
    unchecked_circuit,
)
from matrix_oracle import circuit_unitary, conjugate, pauli_matrix
from test_golden import SOURCE_ENTANGLERS, golden_sources


def pp(text, n):
    return PauliProduct.from_string(text, n)


class TestIdentity:
    def test_one_qubit(self):
        t = identity(1)
        assert [str(img) for img in t.images()] == ["+X0", "+Z0"]

    def test_matches_empty_circuit(self):
        assert identity(2) == from_circuit(Circuit(2, ()))

    def test_identity_conjugation_is_trivial(self):
        t = identity(2)
        for x in range(4):
            for z in range(4):
                p = PauliProduct(2, x, z)
                assert conjugate_product(t, p) == p


class TestInputChecks:
    """The messages of the tableau constructors' and views' own checks."""

    def test_from_images_count_and_size(self):
        with pytest.raises(ValueError, match="^expected 2 images, got 1$"):
            Tableau.from_images(1, [pp("+X0", 1)])
        with pytest.raises(ValueError, match="^image qubit count mismatch$"):
            Tableau.from_images(1, [pp("+X0", 2), pp("+Z0", 2)])

    def test_equality_with_another_type(self):
        assert identity(1).__eq__(3) is NotImplemented
        assert identity(1) != 3

    def test_negative_identity(self):
        with pytest.raises(ValueError, match="^qubit count must be non-negative$"):
            identity(-1)

    def test_describe_equal_tableaux(self):
        with pytest.raises(ValueError, match="^the tableaux are equal$"):
            describe_difference(identity(2), identity(2), "a", "b")

    def test_pretty_empty(self):
        assert pretty(identity(0)) == "(empty tableau)"


class TestAppendGate:
    def test_cx_tableau(self):
        t = append_gate(identity(2), builtin("CX"), (0, 1))
        assert t == images_tableau(CX_IMAGES)

    def test_ecr_tableau(self):
        t = append_gate(identity(2), builtin("ECR"), (0, 1))
        assert t == images_tableau(ECR_IMAGES)

    def test_h_involution(self):
        t = append_gate(identity(1), builtin("H"), (0,))
        t = append_gate(t, builtin("H"), (0,))
        assert t == identity(1)

    def test_arity_violation(self):
        with pytest.raises(ValueError):
            append_gate(identity(2), builtin("CX"), (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError):
            append_gate(identity(2), builtin("CX"), (1, 1))

    def test_symplectic_preserved(self):
        rng = random.Random(0)
        t = identity(3)
        names = ["H", "S", "SQRT_X", "CX", "CZ", "ISWAP", "ECR"]
        for _ in range(30):
            g = builtin(rng.choice(names))
            qubits = tuple(rng.sample(range(3), g.arity))
            t = append_gate(t, g, qubits)
            assert t.is_symplectic()


class TestFromCircuit:
    def test_worked_example_tableau(self, worked_example, worked_example_tableau):
        assert from_circuit(worked_example) == worked_example_tableau

    def test_ecr_skeleton_tableau(self):
        skeleton = parse(
            "ECR 0 1\nECR 2 3\nTICK\nECR 0 2\nTICK\nECR 1 3\n"
        )
        assert from_circuit(skeleton) == images_tableau(ECR_SKELETON_IMAGES)

    def test_empty_circuit(self):
        assert from_circuit(Circuit(3, ())) == identity(3)

    def test_composition(self):
        spec_a = RandomCircuitSpec(n=4, entangler_layers=2, seed=1, entangler=builtin("CX"))
        spec_b = RandomCircuitSpec(n=4, entangler_layers=2, seed=2, entangler=builtin("CZ"))
        a = random_clifford_circuit(spec_a)
        b = random_clifford_circuit(spec_b)
        combined = Circuit(4, a.layers + b.layers)
        t = from_circuit(a)
        for layer in b.layers:
            for inst in layer:
                t = append_gate(t, inst.gate, inst.qubits)
        assert t == from_circuit(combined)

    def test_against_dense_matrices(self):
        rng = random.Random(5)
        for seed in range(10):
            spec = RandomCircuitSpec(
                n=3, entangler_layers=2, seed=seed, entangler=builtin("CX")
            )
            c = random_clifford_circuit(spec)
            t = from_circuit(c)
            u = circuit_unitary(c)
            for x in range(8):
                z = rng.getrandbits(3)
                p = PauliProduct(3, x, z)
                want = conjugate(u, pauli_matrix(p))
                got = pauli_matrix(conjugate_product(t, p))
                assert np.allclose(want, got)


class TestConjugateProduct:
    def test_cx_on_y0z1(self):
        t = images_tableau(CX_IMAGES)
        img = conjugate_product(t, pp("+Y0*Z1", 2))
        assert img == pp("+X0*Y1", 2)

    def test_identity_product(self, worked_example_tableau):
        p = PauliProduct(4)
        assert conjugate_product(worked_example_tableau, p) == p

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            conjugate_product(identity(2), PauliProduct(3))

    def test_commutation_preserved(self, worked_example_tableau):
        rng = random.Random(2)
        for _ in range(50):
            a = PauliProduct(4, rng.getrandbits(4), rng.getrandbits(4))
            b = PauliProduct(4, rng.getrandbits(4), rng.getrandbits(4))
            assert commutes(a, b) == commutes(
                conjugate_product(worked_example_tableau, a),
                conjugate_product(worked_example_tableau, b),
            )


class TestEquality:
    def test_self_equal(self, worked_example_tableau):
        ok, flips = equal_up_to_sign(worked_example_tableau, worked_example_tableau)
        assert ok and flips == 0
        assert worked_example_tableau == worked_example_tableau.copy()

    def test_compiled_signs_flip_on_frame_anticommuters(self, worked_example_tableau):
        compiled = images_tableau(
            [
                ("-" if s < 0 else "+") + text[1:]
                for text, s in zip(WORKED_EXAMPLE_IMAGES, COMPILED_SIGNS)
            ]
        )
        ok, flips = equal_up_to_sign(compiled, worked_example_tableau)
        assert ok
        frame = pp("+X2", 4)
        for g, img in enumerate(compiled.images()):
            assert bool((flips >> g) & 1) == (not commutes(frame, img))

    @pytest.mark.parametrize("name", ["S", "SQRT_X"])
    def test_letters_differing_in_one_bit_row_not_equal_up_to_sign(self, name):
        # S keeps every X bit of identity(1) and SQRT_X every Z bit.
        t = append_gate(identity(1), builtin(name), (0,))
        assert equal_up_to_sign(t, identity(1)) == (False, None)

    def test_cx_vs_ecr_not_equal_even_up_to_sign(self):
        ok, flips = equal_up_to_sign(
            images_tableau(CX_IMAGES), images_tableau(ECR_IMAGES)
        )
        assert not ok and flips is None


class TestRelabelWires:
    def test_supports_move_generators_stay(self):
        t = images_tableau(CX_IMAGES)
        r = t.relabel_wires((1, 0))
        assert [str(img) for img in r.images()] == ["+X0*X1", "+Z1", "+X0", "+Z0*Z1"]

    def test_identity_and_transposition_involution(self, worked_example_tableau):
        t = worked_example_tableau
        assert t.relabel_wires((0, 1, 2, 3)) == t
        assert t.relabel_wires((1, 0, 2, 3)).relabel_wires((1, 0, 2, 3)) == t

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            identity(2).relabel_wires((0, 0))


class TestPretty:
    def test_layout(self):
        t = images_tableau(CX_IMAGES)
        text = pretty(t)
        lines = text.splitlines()
        assert lines[0].split() == ["X0", "Z0", "X1", "Z1"]
        assert lines[1].split() == ["+/-", "+", "+", "+", "+"]
        assert lines[2].split() == ["0", "X", "Z", "_", "Z"]
        assert lines[3].split() == ["1", "X", "_", "X", "Z"]

    def test_sign_row_shows_minus(self):
        t = images_tableau(ECR_IMAGES)
        assert pretty(t).splitlines()[1].split() == ["+/-", "-", "-", "+", "+"]


# ---------------------------------------------------------------------------
# Differential and property tests of the bit-packed tableau


@st.composite
def dialect_circuits(draw, max_n=5, max_gates=12):
    """Random circuits over every dialect gate, one instruction per layer."""
    n = draw(st.integers(1, max_n))
    names = [g for g in DIALECT_GATES if n >= builtin(g).arity]
    insts = []
    for _ in range(draw(st.integers(0, max_gates))):
        gate = builtin(draw(st.sampled_from(names)))
        qubits = draw(st.permutations(range(n)))[: gate.arity]
        insts.append(Instruction(gate, tuple(qubits)))
    return Circuit(n, tuple((inst,) for inst in insts))


def old_uint8_tableau(c: Circuit) -> list[PauliProduct]:
    """Images from the generator-major uint8 LUT update the tableau used to have."""
    n = c.n
    xs = np.zeros((2 * n, n), dtype=np.uint8)
    zs = np.zeros((2 * n, n), dtype=np.uint8)
    signs = np.ones(2 * n, dtype=np.int8)
    for j in range(n):
        xs[2 * j, j] = zs[2 * j + 1, j] = 1
    for inst in c.instructions():
        out_bits, out_sign = reference_lut(inst.gate)
        cols = [a[:, q] for q in inst.qubits for a in (xs, zs)]
        key = sum(col.astype(np.int64) << (len(cols) - 1 - i) for i, col in enumerate(cols))
        for k, q in enumerate(inst.qubits):
            xs[:, q] = out_bits[2 * k][key]
            zs[:, q] = out_bits[2 * k + 1][key]
        signs *= out_sign[key]

    def to_int(bits):
        return sum(int(b) << q for q, b in enumerate(bits))

    return [PauliProduct(n, to_int(xs[g]), to_int(zs[g]), int(signs[g])) for g in range(2 * n)]


def interpret_rule(t: Tableau, gate, qubits) -> None:
    """The generic rule interpreter gates were applied with before each gate
    compiled its rule into a kernel, kept as a reference."""
    xs, zs = t._x, t._z
    rows = [r for q in qubits for r in (xs[q], zs[q])]
    linear, sign_terms = gate.rule
    flip = 0
    for term in sign_terms:
        acc = rows[term[0]]
        for i in term[1:]:
            acc &= rows[i]
        flip ^= acc
    t._sign ^= flip
    for k, inputs in enumerate(linear):
        acc = 0
        for i in inputs:
            acc ^= rows[i]
        (zs if k & 1 else xs)[qubits[k >> 1]] = acc


def random_rows(rng: random.Random, n: int) -> Tableau:
    """Arbitrary row ints, not a unitary tableau: kernels are bitwise."""
    width = 2 * n
    return Tableau(n, [rng.getrandbits(width) for _ in range(n)],
                   [rng.getrandbits(width) for _ in range(n)], rng.getrandbits(width))


@st.composite
def composed_two_qubit_gates(draw):
    """A two-qubit Clifford composed of up to eight dialect gates."""
    t = identity(2)
    for _ in range(draw(st.integers(1, 8))):
        gate = builtin(draw(st.sampled_from(sorted(DIALECT_GATES))))
        t = append_gate(t, gate, tuple(draw(st.permutations((0, 1))))[: gate.arity])
    return GateDef("composed", 2, t)


def inverse_gate(gate: GateDef) -> GateDef:
    """The gate's inverse found by search: the image of generator P under
    G^-1 is sQ for the product Q that G sends to sP."""
    n = gate.arity
    images = []
    for g in range(2 * n):
        want = (1 << g // 2, 0) if g % 2 == 0 else (0, 1 << g // 2)
        images += [PauliProduct(n, x, z, img.sign)
                   for x in range(2 ** n) for z in range(2 ** n)
                   for img in [conjugate_product(gate.semantics, PauliProduct(n, x, z))]
                   if (img.x, img.z) == want]
    return GateDef(f"{gate.name}^-1", n, Tableau.from_images(n, images))


def assert_inverse_kernel(gate: GateDef, rng: random.Random) -> None:
    """The inverse kernel restores random rows and signs after the kernel,
    and applies the rule of the searched inverse."""
    inverse = inverse_gate(gate)
    wires = tuple(range(gate.arity))
    both = append_gate(append_gate(identity(gate.arity), gate, wires), inverse, wires)
    assert both == identity(gate.arity)
    for n in (2, 5, 70):
        qubits = tuple(rng.sample(range(n), gate.arity))
        t = random_rows(rng, n)
        before = t.copy()
        layer = unchecked_circuit(n, [[_instruction(gate, qubits)]])._columns
        t = append_gate(t, gate, qubits)
        t._apply_layers(layer, inverse=True)
        assert t == before
        want = t.copy()
        interpret_rule(want, inverse, qubits)
        t._apply_layers(layer, inverse=True)
        assert t == want


def acceptance_corpus() -> list[Circuit]:
    """Sources and compiled outputs of the kinds the acceptance suite checks."""
    corpus = [parse(WORKED_EXAMPLE_TEXT), parse(FAN_OUT_TEXT)]
    corpus.append(
        compile_with_iswap_heuristic(parse(FAN_OUT_TEXT), builtin_gateset("iswap")).circuit
    )
    for d in (3, 5):
        source = surface_code_syndrome_extraction(SurfaceCodeSpec(d))
        corpus.append(source)
        for target in ("sqrt_xx", "ecr"):
            corpus.append(compile_circuit(source, builtin_gateset(target)).circuit)
    for i in range(12):
        entangler = ("CX", "CZ", "ISWAP", "SQRT_XX")[i % 4]
        corpus.append(random_clifford_circuit(RandomCircuitSpec(
            n=2 + i % 6, entangler_layers=1 + i % 5, seed=7000 + i,
            entangler=builtin(entangler),
        )))
    return corpus


class TestAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(dialect_circuits())
    def test_matches_dense_matrices_signs_included(self, c):
        t = from_circuit(c)
        u = circuit_unitary(c)
        images = t.images()
        for j in range(c.n):
            for gen, img in ((PauliProduct(c.n, x=1 << j), images[2 * j]),
                             (PauliProduct(c.n, z=1 << j), images[2 * j + 1])):
                assert np.allclose(conjugate(u, pauli_matrix(gen)), pauli_matrix(img))

    @settings(max_examples=40, deadline=None)
    @given(dialect_circuits(max_n=9, max_gates=30))
    def test_matches_old_uint8_update_on_random_circuits(self, c):
        assert from_circuit(c).images() == old_uint8_tableau(c)

    def test_matches_old_uint8_update_on_acceptance_corpus(self):
        for c in acceptance_corpus():
            assert from_circuit(c).images() == old_uint8_tableau(c)

    def test_matches_old_uint8_update_on_d7_surface_round(self):
        source = surface_code_syndrome_extraction(SurfaceCodeSpec(7))
        for c in (source, compile_circuit(source, builtin_gateset("ecr")).circuit):
            assert from_circuit(c).images() == old_uint8_tableau(c)

    @pytest.mark.parametrize("n", [1, 3, 33, 67])
    def test_matches_old_uint8_update_off_byte_boundaries(self, n):
        # 2n is not a multiple of 8 here, nor n of 64.
        rng = random.Random(n)
        names = [g for g in DIALECT_GATES if n >= builtin(g).arity]
        insts = []
        for _ in range(6 * n):
            gate = builtin(rng.choice(names))
            insts.append(Instruction(gate, tuple(rng.sample(range(n), gate.arity))))
        c = Circuit(n, tuple((inst,) for inst in insts))
        t = from_circuit(c)
        assert t.images() == old_uint8_tableau(c)
        assert Tableau.from_images(n, t.images()) == t


class TestGateKernels:
    @pytest.mark.parametrize("name", sorted(DIALECT_GATES))
    def test_builtin_kernel_matches_rule_interpreter(self, name):
        gate = builtin(name)
        rng = random.Random(name)
        for n in (2, 5, 70):
            for _ in range(10):
                qubits = tuple(rng.sample(range(n), gate.arity))
                t = random_rows(rng, n)
                want = t.copy()
                interpret_rule(want, gate, qubits)
                assert append_gate(t, gate, qubits) == want

    @settings(max_examples=60, deadline=None)
    @given(composed_two_qubit_gates(), st.randoms(use_true_random=False))
    def test_composed_kernel_matches_rule_interpreter_and_uint8(self, gate, rng):
        n = 5
        a, b = rng.sample(range(n), 2)
        t = random_rows(rng, n)
        want = t.copy()
        interpret_rule(want, gate, (a, b))
        assert append_gate(t, gate, (a, b)) == want
        h, s = builtin("H"), builtin("S")
        layers = [[Instruction(h, (q,)) for q in range(n)],
                  [Instruction(s, (q,)) for q in range(0, n, 2)],
                  [Instruction(gate, (a, b))],
                  [Instruction(builtin("CX"), (a, b))],
                  [Instruction(gate, (b, a))]]
        c = Circuit(n, tuple(map(tuple, layers)))
        assert from_circuit(c).images() == old_uint8_tableau(c)

    @pytest.mark.parametrize("name", sorted(DIALECT_GATES))
    def test_builtin_inverse_kernel_undoes_the_kernel(self, name):
        assert_inverse_kernel(builtin(name), random.Random(name + "^-1"))

    @settings(max_examples=60, deadline=None)
    @given(composed_two_qubit_gates(), st.randoms(use_true_random=False))
    def test_composed_inverse_kernel_undoes_the_kernel(self, gate, rng):
        assert_inverse_kernel(gate, rng)

    @pytest.mark.parametrize("name,qubits,message", [
        ("H", (), "expects 1 qubits"),
        ("H", (0, 1), "expects 1 qubits"),
        ("H", (-1,), "out of range"),
        ("H", (3,), "out of range"),
        ("CX", (0,), "expects 2 qubits"),
        ("CX", (0, 1, 2), "expects 2 qubits"),
        ("CX", (1, 1), "duplicate qubit"),
        ("CX", (-1, 0), "out of range"),
        ("CX", (0, -3), "out of range"),
        ("CX", (3, 0), "out of range"),
        ("CX", (0, 3), "out of range"),
    ])
    def test_apply_gate_rejects_bad_qubits(self, name, qubits, message):
        t = from_circuit(parse("H 0\nTICK\nCX 0 1\nS 2"))
        before = t.copy()
        with pytest.raises(ValueError, match=message):
            append_gate(t, builtin(name), qubits)
        assert t == before

    @pytest.mark.parametrize("name,qubits", [("S", (1,)), ("CX", (2, 0))])
    def test_append_gate_folds_one_gate_layer(self, monkeypatch, name, qubits):
        gate, t = builtin(name), identity(3)
        want = from_circuit(Circuit(3, ((Instruction(gate, qubits),),)))
        layers, fold = [], Tableau._apply_layers

        def counted(self, columns, inverse=False):
            layers.extend(columns)
            fold(self, columns, inverse)

        monkeypatch.setattr(Tableau, "_apply_layers", counted)
        assert append_gate(t, gate, list(qubits)) == want and t == identity(3)
        half = [[gate], *([q] for q in qubits)]
        assert layers == [half + [[], [], []] if gate.arity == 1 else [[], [], *half]]

    # Gates built unchecked, as the pipeline builds them, with the exact text
    # each check raises: arity, a repeated qubit, and the range of each wire.
    BAD_GATES = [
        ("H", (0, 1), "H expects 1 qubits, got 2"),
        ("CX", (0,), "CX expects 2 qubits, got 1"),
        ("H", (3,), "qubit 3 out of range for n=3"),
        ("H", (-1,), "qubit -1 out of range for n=3"),
        ("CX", (1, 1), "duplicate qubit in CX (1, 1)"),
        ("CX", (3, 0), "qubit 3 out of range for n=3"),
        ("CX", (-1, 0), "qubit -1 out of range for n=3"),
        ("CX", (0, 3), "qubit 3 out of range for n=3"),
        ("CX", (0, -3), "qubit -3 out of range for n=3"),
    ]

    @pytest.mark.parametrize("name,qubits,message", BAD_GATES)
    def test_whole_circuits_check_every_gate(self, name, qubits, message):
        good = unchecked_circuit(3, [[_instruction(builtin("H"), (0,))],
                                     [_instruction(builtin("S"), (2,))]])
        bad = unchecked_circuit(3, [*good.layers, [_instruction(builtin(name), qubits)]])
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            append_gate(identity(3), builtin(name), qubits)
        with pytest.raises(ValueError, match=exact):
            from_circuit(bad)
        with pytest.raises(ValueError, match=exact):  # the half applied forwards
            certify(bad, good)
        with pytest.raises(ValueError, match=exact):  # the half applied inverted
            certify(good, bad)

    @pytest.mark.parametrize("name,qubits,message", BAD_GATES)
    def test_bad_gate_amid_a_long_layer(self, name, qubits, message):
        """Each bad gate again, in the middle of a 40-gate layer of good gates
        of its width on n = 83 wires: a check that read only a column's ends,
        or only its first gate, would miss some of them."""
        def moved(q):  # in range to the middle of the layer, out of range past n
            return q + 40 if 0 <= q < 3 else q + 80 if q >= 3 else q

        width, bad = len(qubits), tuple(map(moved, qubits))
        starts = [*range(0, 40, width)][:20] + [*range(43, 83, width)][:19]
        layer = [_instruction(builtin("H" if width == 1 else "CX"), tuple(range(q, q + width)))
                 for q in starts] + [_instruction(builtin(name), bad)]
        good = unchecked_circuit(83, [[_instruction(builtin("H"), (0,))],
                                      [_instruction(builtin("S"), (2,))]])
        circuit = unchecked_circuit(83, [*good.layers, layer])
        assert len(circuit._columns[-1][0] or circuit._columns[-1][2]) == 40
        if "duplicate" in message:
            message = f"duplicate qubit in {name} {bad}"
        elif "range" in message:
            q = moved(int(re.search(r"qubit (-?\d+)", message)[1]))
            message = f"qubit {q} out of range for n=83"
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            from_circuit(circuit)
        with pytest.raises(ValueError, match=exact):
            certify(circuit, good)
        with pytest.raises(ValueError, match=exact):
            certify(good, circuit)

    @pytest.mark.parametrize("name,qubits,message", BAD_GATES)
    def test_certify_raises_before_any_tableau(self, monkeypatch, name, qubits, message):
        """The walk raises a bad gate of either circuit itself, before any
        n-qubit tableau is built; with a bad gate in both, it names a's."""
        def refuse(n):
            raise AssertionError("a tableau was built")

        good = unchecked_circuit(3, [[_instruction(builtin("CX"), (0, 1))],
                                     [_instruction(builtin("S"), (2,))]])
        bad = unchecked_circuit(3, [*good.layers, [_instruction(builtin(name), qubits)]])
        other = unchecked_circuit(3, [[_instruction(builtin("H"), (5,))]])
        monkeypatch.setattr(tb, "identity", refuse)
        for a, b in ((bad, good), (good, bad), (bad, other)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                certify(a, b)
        with pytest.raises(ValueError, match="^qubit 5 out of range for n=3$"):
            certify(other, bad)

    @staticmethod
    def entangler_layers(*layers):
        """A 3-qubit circuit built through ``circuit._circuit`` from entangler
        layers, each a list of (name, a, b): no check sees a reused qubit."""
        return _circuit(3, [[[], [], [builtin(name) for name, _, _ in layer],
                             [a for _, a, _ in layer], [b for _, _, b in layer]]
                            for layer in layers])

    @pytest.mark.parametrize("a,b,message", [
        ([[("SQRT_XX", 2, 0)], [("CX", 2, 1)], [("CX", 1, 2), ("CX", 2, 0)]],
         [[("SQRT_XX", 2, 0)], [("CX", 2, 1)], [("CXSWAP", 1, 2), ("CXSWAP", 2, 0)]],
         "qubit 2 used twice in one layer"),
        ([[("CXSWAP", 0, 1), ("CX", 1, 2)]], [[("CXSWAP", 0, 1), ("CX", 1, 2)]],
         "qubit 1 used twice in one layer"),
    ], ids=["three layers", "one layer"])
    def test_certify_refuses_a_qubit_used_twice_in_a_layer(self, monkeypatch, a, b, message):
        """A layer that uses a qubit twice is refused, in ``Circuit(...)``'s words,
        before any n-qubit tableau; the walk once accepted the first pair with
        no permutation and the second against itself."""
        def refuse(n):
            raise AssertionError("a tableau was built")

        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit(3, [[Instruction(builtin(name), (p, q)) for name, p, q in a[-1]]])
        monkeypatch.setattr(tb, "identity", refuse)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                certify(self.entangler_layers(*x), self.entangler_layers(*y))
        good = self.entangler_layers([("CX", 0, 1)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            certify(good, self.entangler_layers(*b))

    def test_gate_name_never_reaches_kernel_source(self):
        name = "x'); import os; ('"
        cz = identity(2)
        for gate, qubits in (("H", (1,)), ("CX", (0, 1)), ("H", (1,))):
            cz = append_gate(cz, builtin(gate), qubits)
        gate = GateDef(name, 2, cz)
        code = gate.kernel.__code__
        assert not any(name in repr(part) for part in
                       (code.co_consts, code.co_names, code.co_varnames))
        rng = random.Random(3)
        t = random_rows(rng, 4)
        want = t.copy()
        interpret_rule(want, gate, (2, 0))
        assert append_gate(t, gate, (2, 0)) == want
        gs = GateSet("named", gate, (builtin("S"), builtin("SQRT_X")))
        source = parse(WORKED_EXAMPLE_TEXT)
        res = compile_circuit(source, gs, frame_mode="fold")
        assert res.stats.counts[name] == 4
        assert from_circuit(res.circuit) == from_circuit(source)


class TestRepresentation:
    @settings(max_examples=40, deadline=None)
    @given(dialect_circuits(max_n=12, max_gates=30))
    def test_images_round_trip(self, c):
        t = from_circuit(c)
        images = t.images()
        assert Tableau.from_images(c.n, images) == t
        # image g holds bit g of every qubit row
        for g, img in enumerate(images):
            assert (img.sign < 0) == bool((t._sign >> g) & 1)
            for q in range(c.n):
                assert img.local(q) == 2 * ((t._x[q] >> g) & 1) + ((t._z[q] >> g) & 1)

    @settings(max_examples=40, deadline=None)
    @given(dialect_circuits(max_n=12, max_gates=30))
    def test_pretty_cells_are_image_letters(self, c):
        t = from_circuit(c)
        images = t.images()
        rows = pretty(t).splitlines()[2:]
        assert len(rows) == c.n
        for q, row in enumerate(rows):
            label, *cells = row.split()
            assert label == str(q)
            assert cells == ["_ZXY"[images[g].local(q)] for g in range(2 * c.n)]

    @settings(max_examples=40, deadline=None)
    @given(dialect_circuits(max_n=6, max_gates=20), st.data())
    def test_relabel_wires_moves_supports_only(self, c, data):
        sigma = data.draw(st.permutations(range(c.n)))
        t = from_circuit(c)
        moved = t.relabel_wires(sigma)
        for before, after in zip(t.images(), moved.images()):
            assert after.sign == before.sign
            for q in range(c.n):
                assert after.local(sigma[q]) == before.local(q)

    @settings(max_examples=40, deadline=None)
    @given(dialect_circuits(max_n=12, max_gates=30), st.data())
    def test_match_wires_recovers_the_relabelling(self, c, data):
        sigma = tuple(data.draw(st.permutations(range(c.n))))
        t = from_circuit(c)
        assert match_wires(t.relabel_wires(sigma), t) == sigma
        assert match_wires(t, t) == tuple(range(c.n))

    def test_match_wires_rejects(self):
        cx, ecr = images_tableau(CX_IMAGES), images_tableau(ECR_IMAGES)
        assert match_wires(cx, ecr) is None
        assert match_wires(cx, identity(3)) is None

    def test_describe_difference_prefers_letters_over_signs(self):
        a = images_tableau(["+X0", "+Z0", "+X1", "+Z1"])
        b = images_tableau(["-X0", "+Z0", "+Y1", "+Z1"])
        assert describe_difference(a, b, "a", "b") == (
            "generator X1 maps to +X1 in a but to +Y1 in b")
        signs_only = images_tableau(["+X0", "-Z0", "+X1", "-Z1"])
        assert describe_difference(a, signs_only, "a", "b") == (
            "generator Z0 maps to +Z0 in a but to -Z0 in b; "
            "only signs differ, which a Pauli frame fixes")
        assert describe_difference(a, identity(3), "a", "b") == "a has 2 qubits but b has 3"


class TestCertificateAgainstOracle:
    """``certify`` gives the verdict, frame and permutation that two
    simulations, a wire match and a frame solve give."""

    def test_golden_corpus(self):
        for source in golden_sources():
            for target in sorted(TARGET_ENTANGLERS):
                for natives in sorted(NATIVE_SETS):
                    res = compile_with_iswap_heuristic(source, builtin_gateset(target, natives))
                    cert = certify(res.circuit, source)
                    assert cert == oracle_certificate(res.circuit, source)
                    assert cert == (res.permutation, res.frame)

    @settings(max_examples=150, deadline=None)
    @given(relabelled_pairs())
    def test_relabelled_pairs(self, pair):
        a, b = pair
        assert certify(a, b) == oracle_certificate(a, b)
        assert certify(b, a) == oracle_certificate(b, a)

    def test_single_gate_mutants_of_swap_mode_outputs(self):
        rng = random.Random(12)
        verdicts = set()
        for seed in range(8):
            source = random_clifford_circuit(RandomCircuitSpec(
                n=3 + seed % 5, entangler_layers=4, seed=9100 + seed,
                entangler=builtin(("CX", "CZ")[seed % 2])))
            gs = builtin_gateset("iswap", ("s_sx", "class6")[seed % 2])
            out = compile_with_iswap_heuristic(source, gs).circuit
            for li, layer in enumerate(out.layers):
                for k, inst in enumerate(layer):
                    names = GATES_1Q if inst.gate.arity == 1 else GATES_2Q
                    for name in rng.sample([g for g in names if g != inst.gate.name], 3):
                        layers = [list(l) for l in out.layers]
                        layers[li][k] = Instruction(builtin(name), inst.qubits)
                        mutant = Circuit(out.n, tuple(map(tuple, layers)))
                        cert = certify(mutant, source)
                        assert cert == oracle_certificate(mutant, source)
                        verdicts.add(cert is None)
        assert verdicts == {True, False}

    def test_sizes_differ(self):
        assert certify(parse("H 0"), parse("H 1")) is None



class TestLocalWalk:
    """The per-wire walk inside ``certify``: its single-qubit tables, its
    2-qubit step against a dense 2-qubit simulation, and its fallbacks."""

    def test_single_qubit_tables_close_on_the_24_states(self):
        words = tb._words()
        # The states are exactly the 1-qubit tableaux, packed in six bits,
        # that are Cliffords, and each word of kernels builds its state.
        cliffords = [k for k in range(64)
                     if Tableau(1, [k & 3], [k >> 2 & 3], k >> 4).is_symplectic()]
        assert len(cliffords) == 24 and sorted(words) == cliffords
        for key, word in words.items():
            t = identity(1)
            for kernel in word:
                t._sign ^= kernel(t._x, t._z, 0)
            assert t == Tableau(1, [key & 3], [key >> 2 & 3], key >> 4)
        for name in ("I", *GATES_1Q):
            gate = builtin(name)
            for table in (tb._table(gate.kernel, False), tb._table(gate.kernel_inv, True)):
                assert [k for k in range(64) if table[k] is not None] == cliffords
                assert sorted(table[k] for k in cliffords) == cliffords
            # a's table steps each state directly: the same as its word, then the gate
            assert [tb._table(gate.kernel, False)[k] for k in words] == \
                [tb._run(tb._ONE, (*word, gate.kernel)) for word in words.values()]

    def test_words_are_the_breadth_first_h_s_words(self):
        """``_words`` keys each state by its first H/S kernel word, breadth
        first with H tried before S, as its own search did before it read
        them off ``_reach``."""
        h, s = builtin("H").kernel, builtin("S").kernel
        words, queue = {tb._ONE: ()}, [tb._ONE]
        for key in queue:
            for kernel in (h, s):
                if (nxt := tb._run(key, (kernel,))) not in words:
                    words[nxt] = words[key] + (kernel,)
                    queue.append(nxt)
        assert list(tb._words().items()) == list(words.items())

    def test_step_matches_a_dense_two_qubit_simulation(self):
        gate_of = {builtin(name).kernel: builtin(name) for name in ("H", "S")}

        def layers(*steps):  # (gate, qubits) pairs in time order, one per layer
            return tuple((_instruction(gate, qubits),) for gate, qubits in steps)

        words = {key: [gate_of[kernel] for kernel in word]
                 for key, word in tb._words().items()}
        states = {(sp, sq): layers(*[(g, (0,)) for g in words[sp]],
                                   *[(g, (1,)) for g in words[sq]])
                  for sp in words for sq in words}
        swap = layers((builtin("SWAP"), (0, 1)))
        expected = {(kp, kq, swapped): from_circuit(unchecked_circuit(2, swap * swapped + wires))
                    for (kp, kq), wires in states.items() for swapped in (False, True)}
        local = 0
        for ga in map(builtin, GATES_2Q):
            for gb in map(builtin, GATES_2Q):
                for flipped in (False, True):
                    b = layers((gb, (1, 0) if flipped else (0, 1)))
                    for (sp, sq), wires in states.items():
                        # gb's inverse, the two states, then ga, on one tableau
                        dense = identity(2)
                        dense._apply_layers(unchecked_circuit(2, b)._columns, inverse=True)
                        dense._apply_layers(
                            unchecked_circuit(2, wires + layers((ga, (0, 1))))._columns)
                        got = tb._kernel_step(ga.kernel, gb.kernel_inv, flipped, sp, sq)
                        if got is None:
                            assert any((img.x | img.z).bit_count() == 2 for img in dense.images())
                        else:
                            assert dense == expected[got]
                            local += 1
        assert 0 < local < 2 * 64 * 576

    def test_misaligned_pair_falls_back(self):
        twice = parse("CX 0 1\nTICK\nCX 0 1")
        empty = _circuit(2, ())
        for a, b in ((twice, empty), (empty, twice)):
            with pytest.raises(tb._Fallback):
                tb._local(a, b)
        assert certify(twice, empty) == certify(empty, twice) == ((0, 1), PauliProduct(2))

    def test_non_local_first_step_falls_back(self):
        cx, cz = parse("CX 0 1\nTICK\nCX 0 1"), parse("CZ 0 1\nTICK\nCZ 0 1")
        with pytest.raises(tb._Fallback):
            tb._local(cx, cz)
        assert certify(cx, cz) == ((0, 1), PauliProduct(2))

    def test_split_entangler_layer_falls_back(self):
        source = surface_code_syndrome_extraction(SurfaceCodeSpec(3))
        k = next(i for i, layer in enumerate(source.layers)
                 if sum(inst.gate.arity == 2 for inst in layer) > 1)
        head, *tail = [inst for inst in source.layers[k] if inst.gate.arity == 2]
        rest = [inst for inst in source.layers[k] if inst is not head]
        split = unchecked_circuit(
            source.n, [*source.layers[:k], [head], rest, *source.layers[k + 1:]])
        with pytest.raises(tb._Fallback):
            tb._local(source, split)
        assert certify(source, split) == (tuple(range(source.n)), PauliProduct(source.n))

    def test_compiles_never_fall_back(self):
        for source in golden_sources()[::3]:
            for target in sorted(TARGET_ENTANGLERS):
                out = compile_with_iswap_heuristic(source, builtin_gateset(target)).circuit
                cert = tb._local(out, source)  # raises on a fallback
                assert cert == certify(out, source) == oracle_certificate(out, source)

    def test_second_certify_makes_no_step(self, monkeypatch):
        """The walk fills each step once, from empty: a second certify of the
        same pairs, aligned (ecr) or matched by dict (iswap), computes none."""
        source = surface_code_syndrome_extraction(SurfaceCodeSpec(5))
        pairs = [(compile_circuit(source, builtin_gateset("ecr")).circuit, source),
                 (compile_with_iswap_heuristic(source, builtin_gateset("iswap")).circuit, source)]
        calls = []
        step = tb._kernel_step

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(tb, "_kernel_step", counted)
        monkeypatch.setattr(tb, "_STEPS", tb._Filled(tb._STEPS.fill))
        first = [certify(a, b) for a, b in pairs]
        assert calls and len(calls) == len(set(calls)) == sum(map(len, tb._STEPS.values()))
        calls.clear()
        assert [certify(a, b) for a, b in pairs] == first
        assert calls == []

    def test_non_pauli_wire_is_rejected_without_a_tableau(self, monkeypatch):
        def refuse(n):
            raise AssertionError("a tableau was built")

        monkeypatch.setattr(tb, "identity", refuse)
        a, b = parse("CX 0 1\nTICK\nH 1"), parse("CX 0 1")
        assert tb._local(a, b) is certify(a, b) is None


def walk_outcome(walk, a, b):
    """``walk(a, b)``, or ``"fallback"`` where it raises ``tableau._Fallback``."""
    try:
        return walk(a, b)
    except tb._Fallback:
        return "fallback"


def assert_walks_agree(a, b):
    """``tableau._local`` returns what the reference walk returns on (a, b),
    or falls back where it does, and ``certify`` returns it; the outcome."""
    got = walk_outcome(tb._local, a, b)
    assert got == walk_outcome(reference_walk, a, b)
    if got != "fallback":
        assert certify(a, b) == got
    return got


def compile_outputs(source):
    """The source compiled in both modes onto every target and native set,
    where the mode compiles it."""
    for target in sorted(TARGET_ENTANGLERS):
        for natives in sorted(NATIVE_SETS):
            gs = builtin_gateset(target, natives)
            yield compile_with_iswap_heuristic(source, gs).circuit
            try:
                yield compile_circuit(source, gs).circuit
            except CompileError:
                pass


def split_entangler_layers(c):
    """c with each entangler layer cut in two after its first pair: the same
    circuit with other TICKs."""
    layers = []
    for layer in c.layers:
        pairs = [inst for inst in layer if inst.gate.arity == 2]
        layers += [[inst for inst in layer if inst is not pairs[0]], pairs[:1]] if pairs else [layer]
    return Circuit(c.n, tuple(tuple(layer) for layer in layers if layer))


class TestWalkAgainstReference:
    """The walk's step dicts and aligned layers change its cost, not its
    outcome: on every pair it returns what the walk before them returned
    (``conftest.reference_walk``), and falls back on the same pairs."""

    def test_compile_outputs_of_surface_code_rounds(self):
        for d in (3, 5):
            source = surface_code_syndrome_extraction(SurfaceCodeSpec(d))
            for out in compile_outputs(source):
                assert assert_walks_agree(out, source) != "fallback"
                assert assert_walks_agree(source, out) != "fallback"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 6), st.integers(0, 2**32),
           st.sampled_from(SOURCE_ENTANGLERS))
    def test_compile_outputs_of_random_sources(self, n, layers, seed, entangler):
        source = random_clifford_circuit(RandomCircuitSpec(
            n=n, entangler_layers=layers, seed=seed, entangler=builtin(entangler)))
        for out in compile_outputs(source):
            assert assert_walks_agree(out, source) != "fallback"
            assert assert_walks_agree(source, out) != "fallback"

    def test_split_tick_pairs(self):
        for d in (3, 5):
            source = surface_code_syndrome_extraction(SurfaceCodeSpec(d))
            out = compile_circuit(source, builtin_gateset("ecr")).circuit
            for c in (source, out):
                split = split_entangler_layers(c)
                for a, b in ((c, split), (split, c), (out, split), (split, out)):
                    assert assert_walks_agree(a, b) == "fallback"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_layers_mixing_two_entangler_kernels(self, data):
        n = data.draw(st.integers(2, 8))
        kinds = data.draw(st.lists(st.sampled_from(("CX", "CZ", "ISWAP", "SQRT_XX", "ECR")),
                                   min_size=2, max_size=2, unique=True))
        layers, flipped = [], []
        for _ in range(data.draw(st.integers(1, 5))):
            order = data.draw(st.permutations(range(n)))
            layers.append([Instruction(builtin(data.draw(st.sampled_from(kinds))),
                                       (order[2 * i], order[2 * i + 1])) for i in range(n // 2)])
            layers.append([Instruction(builtin(data.draw(st.sampled_from(GATES_1Q))), (q,))
                           for q in range(n) if data.draw(st.booleans())])
            # CZ is symmetric, so its pairs may meet the other side reversed.
            flipped.append([Instruction(i.gate, i.qubits[::-1] if i.gate.name == "CZ" else i.qubits)
                            for i in layers[-2]])
            flipped.append(layers[-1])
        mixed = Circuit(n, tuple(tuple(layer) for layer in layers if layer))
        other = Circuit(n, tuple(tuple(layer) for layer in flipped if layer))
        for a, b in ((mixed, mixed), (mixed, other), (other, mixed)):
            assert assert_walks_agree(a, b) != "fallback"
        for out in compile_outputs(mixed):
            assert_walks_agree(out, mixed)
            assert_walks_agree(out, other)

    def test_golden_corpus_single_gate_mutants(self):
        rng = random.Random(32)
        outcomes = set()
        for source in golden_sources()[::2]:
            for target in ("ecr", "iswap"):
                out = compile_with_iswap_heuristic(source, builtin_gateset(target)).circuit
                spots = [(li, k) for li, layer in enumerate(out.layers) for k in range(len(layer))]
                for li, k in rng.sample(spots, min(6, len(spots))):
                    inst = out.layers[li][k]
                    names = GATES_1Q if inst.gate.arity == 1 else GATES_2Q
                    layers = [list(layer) for layer in out.layers]
                    layers[li][k] = Instruction(builtin(rng.choice(
                        [g for g in names if g != inst.gate.name])), inst.qubits)
                    mutant = Circuit(out.n, tuple(map(tuple, layers)))
                    outcomes.add(type(assert_walks_agree(mutant, source)).__name__)
                    assert_walks_agree(source, mutant)
        assert outcomes == {"NoneType", "str", "tuple"}  # rejected, fallback, accepted


class TestFrameReadOff:
    """``_pauli`` reads the frame through two byte tables; it agrees with the
    per-wire read-off it replaced (``conftest.reference_pauli``)."""

    def test_every_state_on_one_and_two_wires(self):
        for states in [*((s,) for s in range(64)), *itertools.product(range(64), repeat=2)]:
            assert tb._pauli(states) == reference_pauli(states)
            assert tb._pauli(list(states)) == reference_pauli(states)
        assert sum(tb._pauli((s,)) is not None for s in range(64)) == 4

    def test_random_states(self):
        rng = random.Random(1249)
        paulis = [tb._ONE | sign << 4 for sign in range(4)]
        assert tb._pauli([]) == reference_pauli([]) == PauliProduct(0)
        for _ in range(20):
            states = rng.choices(paulis, k=1249)
            assert tb._pauli(states) == reference_pauli(states) is not None
            states[rng.randrange(1249)] = rng.choice([s for s in range(64) if s & 15 != tb._ONE])
            assert tb._pauli(states) is reference_pauli(states) is None


def test_verify_rejects_one_mutated_single_qubit_gate(tmp_path):
    source = surface_code_syndrome_extraction(SurfaceCodeSpec(5))
    compiled = compile_circuit(source, builtin_gateset("ecr")).circuit
    (tmp_path / "src.stim").write_text(emit(source))
    rng = random.Random(11)
    singles = [(li, k) for li, layer in enumerate(compiled.layers)
               for k, inst in enumerate(layer) if inst.gate.arity == 1]
    runner = CliRunner()

    def verify(circuit):
        (tmp_path / "out.stim").write_text(emit(circuit))
        return runner.invoke(cli_main, ["verify", str(tmp_path / "out.stim"),
                                        str(tmp_path / "src.stim"), "--up-to-frame"])

    assert verify(compiled).exit_code == 0
    for li, k in rng.sample(singles, 5):
        layers = [list(layer) for layer in compiled.layers]
        old = layers[li][k]
        # S and SQRT_X differ by a non-Pauli Clifford, so no frame can fix it.
        swapped = builtin("SQRT_X" if old.gate.name == "S" else "S")
        layers[li][k] = Instruction(swapped, old.qubits)
        result = verify(Circuit(compiled.n, tuple(tuple(l) for l in layers)))
        assert result.exit_code == 1, (li, k, result.output)
        assert "not equivalent" in result.output
