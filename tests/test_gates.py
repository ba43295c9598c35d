import ast
import itertools
import random
from collections import Counter

import numpy as np
import pytest

import recliff.circuit
import recliff.compiler
import recliff.gates
from recliff import tableau as tb
from recliff import (
    GateSet,
    Pauli,
    PauliProduct,
    Tableau,
    append_gate,
    builtin,
    builtin_gateset,
    compile_with_iswap_heuristic,
    decompose_single_qubit,
    identity,
    parse,
)
from recliff.circuit import DIALECT_GATES, _circuit, _instruction
from recliff.gates import CLASS_GATES, NATIVE_SETS, TARGET_ENTANGLERS, GateDef

from conftest import (
    ECR_IMAGES, SQRT_XX_IMAGES, conjugate_product, images_tableau, one_local_letter,
    reference_lut, single, two_qubit_symplectic_maps,
)
from matrix_oracle import UNITARIES, conjugate, pauli_matrix


class TestBuiltinSemantics:
    def test_h_conjugations(self):
        h = builtin("H")
        assert [str(img) for img in h.semantics.images()] == ["+Z0", "+X0"]
        y = conjugate_product(h.semantics, PauliProduct.from_string("+Y0", 1))
        assert str(y) == "-Y0"

    def test_ecr_matches_golden_tableau(self):
        assert builtin("ECR").semantics == images_tableau(ECR_IMAGES)

    def test_ecr_composition_rebuilt(self):
        t = identity(2)
        for name, qs in (("S", (0,)), ("SQRT_X", (1,)), ("CX", (0, 1)), ("X", (0,))):
            t = append_gate(t, builtin(name), qs)
        assert t == builtin("ECR").semantics

    def test_sqrt_xx_frozen_constant_matches_dense_matrix(self):
        u = UNITARIES["SQRT_XX"]
        t = builtin("SQRT_XX").semantics
        assert t == images_tableau(SQRT_XX_IMAGES)
        for g, img in enumerate(t.images()):
            j, kind = divmod(g, 2)
            gen = single(2, j, Pauli.X if kind == 0 else Pauli.Z)
            assert np.allclose(conjugate(u, pauli_matrix(gen)), pauli_matrix(img))

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            builtin("T")

    def test_cnot_alias(self):
        assert builtin("CNOT") is builtin("CX")

    @pytest.mark.parametrize("name", sorted(DIALECT_GATES))
    def test_every_builtin_matches_dense_conjugation(self, name):
        g = builtin(name)
        u = UNITARIES[name]
        n = g.arity
        for x in range(2 ** n):
            for z in range(2 ** n):
                p = PauliProduct(n, x, z)
                img = conjugate_product(g.semantics, p)
                assert np.allclose(conjugate(u, pauli_matrix(p)), pauli_matrix(img)), (
                    name, str(p),
                )


def test_perm_is_the_certificate_state_letters():
    """``GateDef.perm``, the public letter view, reads the same letters as the
    gate's 1-qubit certificate state (``tableau._run``), the sweep's only
    letter algebra, on every builtin single-qubit gate."""
    gates = [builtin(name) for name in DIALECT_GATES if builtin(name).arity == 1]
    assert len(gates) == 13
    for gate in gates:
        state = tb._run(tb._ONE, (gate.kernel,))
        x, z = state & 3, state >> 2 & 3  # bit 0 of each for X's image, bit 1 for Z's
        assert gate.perm == tuple(2 * (x >> g & 1) + (z >> g & 1) for g in (0, 1)), gate.name


class TestDecomposeSingleQubit:
    @pytest.mark.parametrize(
        "name,word,residual",
        [
            ("H", ("S", "SQRT_X", "S"), "+I"),
            ("H_XY", ("S",), "+Y0"),
            ("H_YZ", ("SQRT_X",), "+Z0"),
            ("C_XYZ", ("SQRT_X", "S"), "+I"),
            ("C_ZYX", ("S", "SQRT_X"), "+Z0"),
            ("I", (), "+I"),
        ],
    )
    def test_standard_identities(self, name, word, residual):
        gs = builtin_gateset("cx", "s_sx")
        seq, res = decompose_single_qubit(builtin(name), gs)
        assert tuple(g.name for g in seq) == word
        assert str(res) == residual

    @pytest.mark.parametrize("name", ["I", "H", "H_XY", "H_YZ", "C_XYZ", "C_ZYX",
                                      "X", "Y", "Z", "S", "S_DAG",
                                      "SQRT_X", "SQRT_X_DAG"])
    def test_replay_is_exact(self, name):
        gs = builtin_gateset("cx", "s_sx")
        g = builtin(name)
        seq, res = decompose_single_qubit(g, gs)
        t = identity(1)
        for step in seq:
            t = append_gate(t, step, (0,))
        if not res.is_identity():
            t = append_gate(t, builtin(res.local(0).letter), (0,))
        assert t == g.semantics

    def test_class6_is_trivial(self):
        gs = builtin_gateset("ecr", "class6")
        for name in ("H", "H_XY", "H_YZ", "C_XYZ", "C_ZYX"):
            seq, res = decompose_single_qubit(builtin(name), gs)
            assert [g.name for g in seq] == [name]
            assert res.is_identity()

    def test_insufficient_natives_rejected(self):
        with pytest.raises(ValueError):
            GateSet("s_only", builtin("CX"), (builtin("S"),))


GATES_1Q = [name for name in DIALECT_GATES if builtin(name).arity == 1]
CUSTOM_NATIVES = GateSet("custom", builtin("CX"),
                         (GateDef("MY_H", 1, builtin("H").semantics), builtin("S_DAG")))


def old_decomposition(g, gs):
    """The word and residual as decompose_single_qubit found them before it
    read them off the 1-qubit states: a breadth-first search over dense
    1-qubit tableaux without signs, in the natives' order, then the
    certificate of g against the word as one-qubit circuits."""
    def letters(t):
        return tuple(t._x), tuple(t._z)

    words = {letters(identity(1)): ()}
    queue = [identity(1)]
    for t in queue:
        for native in gs.single_qubit_natives:
            nxt = append_gate(t, native, (0,))
            if letters(nxt) not in words:
                words[letters(nxt)] = words[letters(t)] + (native,)
                queue.append(nxt)
    word = words[letters(g.semantics)]
    perm, residual = tb.certify(
        _circuit(1, ((_instruction(g, (0,)),),)),
        _circuit(1, tuple((_instruction(step, (0,)),) for step in word)))
    assert perm == (0,)
    return word, residual


class TestDecomposeWithoutCircuits:
    """decompose_single_qubit reads its word and residual off 1-qubit states:
    gates.py builds no circuit and runs no certificate."""

    def test_gates_module_imports_no_circuit(self):
        tree = ast.parse(open(recliff.gates.__file__).read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert "pauli" in imported  # the walk sees the module's imports
        assert [name for name in imported if "circuit" in name.split(".")] == []

    @pytest.mark.parametrize("natives", ["s_sx", "class6", "custom"])
    def test_matches_the_certificate(self, monkeypatch, natives):
        gs = CUSTOM_NATIVES if natives == "custom" else builtin_gateset("cx", natives)
        gates = [builtin(name) for name in GATES_1Q]
        assert len(gates) == 13
        expected = [old_decomposition(g, gs) for g in gates]

        def refuse(*args, **kwargs):
            raise AssertionError("decompose_single_qubit built a circuit or ran certify")

        monkeypatch.setattr(tb, "certify", refuse)
        monkeypatch.setattr(recliff.circuit, "_circuit", refuse)
        assert [decompose_single_qubit(g, gs) for g in gates] == expected


class TestReach:
    def test_classes_and_states(self):
        s, sx = builtin("S"), builtin("SQRT_X")
        classes = tb._reach((s, sx), 15)
        assert len(classes) == 6 and all(key < 16 for key in classes)
        assert classes[tb._run(tb._ONE, (builtin("H").kernel,)) & 15] == (s, sx, s)
        assert len(tb._reach((s, sx), 63)) == 24
        assert tb._reach((s,), 15) == {tb._ONE: (), tb._run(tb._ONE, (s.kernel,)) & 15: (s,)}


class TestOneSearchPerGateset:
    """A gateset searches its natives once; its six class words and their
    residuals are read off that search."""

    GATESETS = [*((target, natives) for target in sorted(TARGET_ENTANGLERS)
                  for natives in sorted(NATIVE_SETS)), ("custom", "custom")]

    @pytest.mark.parametrize("target, natives", GATESETS)
    def test_class_words_unchanged(self, target, natives):
        gs = CUSTOM_NATIVES if target == "custom" else builtin_gateset(target, natives)
        assert gs._class_words == tuple(old_decomposition(g, gs) for g in CLASS_GATES)

    @pytest.mark.parametrize("target, natives", GATESETS)
    def test_at_most_two_searches(self, monkeypatch, target, natives):
        """The natives' search and the six class words are made inside
        ``GateSet(...)``; a compile onto it neither searches the natives
        again nor decomposes (the certificate's own H/S search is made once
        per process, so at most one more search in all)."""
        like = CUSTOM_NATIVES if target == "custom" else builtin_gateset(target, natives)
        calls, decomposed = [], []
        reach, decompose = tb._reach, recliff.gates.decompose_single_qubit

        def counted(gates, mask):
            calls.append(mask)
            return reach(gates, mask)

        def counted_decompose(g, natives):
            decomposed.append(g)
            return decompose(g, natives)

        monkeypatch.setattr(tb, "_reach", counted)
        monkeypatch.setattr(recliff.gates, "decompose_single_qubit", counted_decompose)
        gs = GateSet(like.name, like.entangler, like.single_qubit_natives)  # nothing shared
        assert calls == [15]
        assert decomposed == list(CLASS_GATES)
        assert len(gs._class_words) == 6
        source = parse(f"H 0\nTICK\n{like.entangler.name} 0 1\nTICK\nS_DAG 1\n")
        recliff.compiler.compile_circuit(source, gs)
        assert calls.count(15) == 1 and len(calls) <= 2
        assert decomposed == list(CLASS_GATES)


def probe(t) -> GateDef:
    return GateDef("_probe", 2, t)


class TestCommutingLocalPauli:
    """A cx-like gate's one-local letter on each wire stays on that wire."""

    def test_cx(self):
        cx = builtin("CX")
        assert cx.entangler_class == "cx_like"
        assert one_local_letter(cx, 0) == Pauli.Z
        assert one_local_letter(cx, 1) == Pauli.X

    def test_ecr(self):
        ecr = builtin("ECR")
        assert ecr.entangler_class == "cx_like"
        assert one_local_letter(ecr, 0) == Pauli.Z
        assert one_local_letter(ecr, 1) == Pauli.X

    def test_sqrt_xx_both_wires_x(self):
        # derived by enumerating the conjugation of X, Y, Z through each wire
        sxx = builtin("SQRT_XX")
        assert sxx.entangler_class == "cx_like"
        for wire in (0, 1):
            stays = [
                p
                for p in (Pauli.X, Pauli.Y, Pauli.Z)
                if len(
                    [
                        q
                        for q in range(2)
                        if conjugate_product(
                            sxx.semantics, single(2, wire, p)
                        ).local(q)
                        != Pauli.I
                    ]
                )
                == 1
            ]
            assert stays == [Pauli.X]
            assert one_local_letter(sxx, wire) == Pauli.X

    def test_iswap_has_none(self):
        # no letter stays on its wire; the one-local letter hops instead
        iswap = builtin("ISWAP")
        assert iswap.entangler_class == "iswap_like"
        for wire in (0, 1):
            letter = one_local_letter(iswap, wire)
            img = conjugate_product(iswap.semantics, single(2, wire, letter))
            assert img.local(wire) == Pauli.I and img.local(1 - wire) != Pauli.I

    def test_rejects_single_qubit_gate(self):
        h = builtin("H")
        assert h.entangler_class == "none"
        assert one_local_letter(h, 0) is None


class TestClassifyEntangler:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("CX", "cx_like"),
            ("CZ", "cx_like"),
            ("SQRT_XX", "cx_like"),
            ("ECR", "cx_like"),
            ("ISWAP", "iswap_like"),
            ("CXSWAP", "iswap_like"),
            ("CZSWAP", "iswap_like"),
            ("SWAP", "swap_like"),
        ],
    )
    def test_builtins(self, name, cls):
        assert builtin(name).entangler_class == cls
        assert probe(builtin(name).semantics).entangler_class == cls

    def test_single_qubit_product_is_none(self):
        t = identity(2)
        t = append_gate(t, builtin("H"), (0,))
        t = append_gate(t, builtin("S"), (1,))
        assert probe(t).entangler_class == "none"

    def test_dressed_swap_is_swap_like(self):
        t = identity(2)
        t = append_gate(t, builtin("H"), (0,))
        t = append_gate(t, builtin("SWAP"), (0, 1))
        t = append_gate(t, builtin("S"), (1,))
        assert probe(t).entangler_class == "swap_like"

    def test_every_two_qubit_clifford(self):
        # Every two-qubit Clifford is locally I, CX, iSWAP or SWAP, so wire 0's
        # landing set alone gives the class that both wires' letters give.
        classes = Counter()
        for images in two_qubit_symplectic_maps():
            g = probe(Tableau.from_images(2, list(images)))
            assert g.entangler_class == old_classify(g, old_wire_letters(g)[0])
            classes[g.entangler_class] += 1
        assert classes == {"none": 36, "cx_like": 324, "swap_like": 36, "iswap_like": 324}


# ---------------------------------------------------------------------------
# The generator-major definition the int tables replaced, kept as a reference


def old_update_rule(out_bits, sign) -> tuple:
    nbits = len(out_bits)

    def inputs_of(key):
        return tuple(i for i in range(nbits) if (key >> (nbits - 1 - i)) & 1)

    linear = tuple(tuple(i for i in range(nbits) if out[1 << (nbits - 1 - i)])
                   for out in out_bits)
    anf = [int(s < 0) for s in sign]
    for bit in range(nbits):
        for key in range(len(anf)):
            if key >> bit & 1:
                anf[key] ^= anf[key ^ (1 << bit)]
    assert not anf[0]
    return linear, tuple(inputs_of(key) for key in range(len(anf)) if anf[key])


def old_wire_letters(g):
    fixed, one_local = [None, None], [None, None]
    for wire in (0, 1):
        for letter in (Pauli.X, Pauli.Y, Pauli.Z):
            img = conjugate_product(g.semantics, single(2, wire, letter))
            supp = tuple(q for q in range(2) if img.local(q) != Pauli.I)
            if supp == (wire,):
                fixed[wire] = letter
                one_local[wire] = letter
            elif len(supp) == 1:
                one_local[wire] = letter
    return fixed, one_local


def old_classify(g, fixed):
    """GateDef's class before landing sets, from both wires' flags: whether
    each keeps a letter in place (``fixed``), keeps all three or moves all
    three, with a fifth outcome for a gate that keeps one on one wire only,
    which no Clifford reaches."""
    stays, crosses = [True, True], [True, True]
    for wire in (0, 1):
        for letter in (Pauli.X, Pauli.Y, Pauli.Z):
            img = conjugate_product(g.semantics, single(2, wire, letter))
            supp = tuple(q for q in range(2) if img.local(q) != Pauli.I)
            stays[wire] &= supp == (wire,)
            crosses[wire] &= supp == (1 - wire,)
    if stays[0] and stays[1]:
        return "none"
    if crosses[0] and crosses[1]:
        return "swap_like"
    if fixed[0] is not None and fixed[1] is not None:
        return "cx_like"
    if fixed[0] is None and fixed[1] is None:
        return "iswap_like"
    raise ValueError("entangler with one-sided fixed Pauli")


def _dressed(*steps):
    t = identity(2)
    for name, qs in steps:
        t = append_gate(t, builtin(name), qs)
    return probe(t)


class TestAgainstGeneratorMajorDefinition:
    @pytest.mark.parametrize("name", sorted(DIALECT_GATES))
    def test_builtin(self, name):
        self.check(builtin(name))

    @pytest.mark.parametrize("steps", [
        (("ECR", (0, 1)), ("SWAP", (0, 1))),
        (("SQRT_XX", (0, 1)), ("SWAP", (0, 1))),
        (("ISWAP", (0, 1)), ("SWAP", (0, 1))),
        (("H", (0,)), ("SWAP", (0, 1)), ("S", (1,))),
        (("H", (0,)), ("S", (1,))),
        (("C_XYZ", (1,)), ("CX", (1, 0)), ("SQRT_X", (0,))),
    ])
    def test_composed(self, steps):
        self.check(_dressed(*steps))

    def test_random_words(self):
        # Seeded words of signed gates reach signs no builtin has.
        rng = random.Random(19)
        for _ in range(60):
            self.check(_dressed(*(
                (rng.choice(["S", "SQRT_X", "Y", "C_XYZ"]), (rng.randrange(2),))
                if rng.random() < 0.5 else
                (rng.choice(["CX", "ISWAP", "SQRT_XX", "ECR"]), tuple(rng.sample([0, 1], 2)))
                for _ in range(rng.randrange(1, 10)))))

    @staticmethod
    def check(g):
        out_bits, sign = reference_lut(g)
        assert g.rule == old_update_rule(out_bits, sign)
        # The inverse kernel undoes the kernel, signs included, either way round.
        for first, then in ((g.kernel, g.kernel_inv), (g.kernel_inv, g.kernel)):
            t = identity(g.arity)
            t._sign ^= first(t._x, t._z, *range(g.arity))
            t._sign ^= then(t._x, t._z, *range(g.arity))
            assert t == identity(g.arity)
        if g.arity == 1:
            assert g.perm == (int(out_bits[0][2] * 2 + out_bits[1][2]),
                              int(out_bits[0][1] * 2 + out_bits[1][1]))
            assert g.entangler_class == "none"
            assert one_local_letter(g, 0) is None
            return
        assert g.perm is None
        fixed, one_local = old_wire_letters(g)
        assert [one_local_letter(g, w) for w in (0, 1)] == one_local
        assert g.entangler_class == old_classify(g, fixed)


class TestSwapInsertionTable:
    """Against a source of the other class, the sweep steps through the
    native crossing each pair's wires exactly as it would step, uncrossed,
    through the native+SWAP composite gate."""

    @pytest.mark.parametrize("target", sorted(TARGET_ENTANGLERS))
    def test_matches_the_composite(self, target):
        native = builtin_gateset(target).entangler
        t = append_gate(append_gate(identity(2), native, (0, 1)), builtin("SWAP"), (0, 1))
        composite = GateDef(f"{native.name}+SWAP", 2, t)
        assert [one_local_letter(composite, w) for w in (0, 1)] == \
            [one_local_letter(native, w) for w in (0, 1)]
        other = {"cx_like": "iswap_like", "iswap_like": "cx_like"}
        assert composite.entangler_class == other[native.entangler_class]

        gs = builtin_gateset(target)
        source_gate = "CX" if native.entangler_class == "iswap_like" else "ISWAP"
        crossed = recliff.compiler._step_table(gs, builtin(source_gate))
        straight = recliff.compiler._step_table(
            GateSet(target, composite, gs.single_qubit_natives), builtin(source_gate))
        # By output wire: the composite's wire 0 ends where the native's wire 1 does.
        assert [entry and (*entry[:2], entry[3], entry[2]) for entry in crossed] == \
            [entry and entry[:4] for entry in straight]
        assert {entry[4] for entry in crossed if entry} == {True}
        assert {entry[4] for entry in straight if entry} == {False}

        source = parse(f"H 0\nTICK\n{source_gate} 0 1\nTICK\n{source_gate} 1 2\n")
        res = compile_with_iswap_heuristic(source, gs)
        assert res.permutation == (1, 2, 0)  # each pair's labels exchanged


class TestInputChecks:
    """The messages of the gate and gateset constructors' own checks."""

    def test_gatedef_arity(self):
        with pytest.raises(ValueError, match="^gate arity must be 1 or 2$"):
            GateDef("G", 3, identity(3))

    def test_gatedef_size(self):
        with pytest.raises(ValueError, match="^semantics size does not match arity$"):
            GateDef("G", 2, identity(1))

    def test_gatedef_symplectic(self):
        t = images_tableau(["+X0", "+X0"])
        with pytest.raises(ValueError,
                           match="^gate G: semantics violate the symplectic condition$"):
            GateDef("G", 1, t)

    def test_gateset_entangler_arity(self):
        with pytest.raises(ValueError, match="^gateset entangler must be a two-qubit gate$"):
            GateSet("bad", builtin("H"), (builtin("S"), builtin("SQRT_X")))

    def test_gateset_native_arity(self):
        with pytest.raises(ValueError, match="^single-qubit natives must have arity 1$"):
            GateSet("bad", builtin("CX"), (builtin("S"), builtin("CZ")))

    def test_decompose_two_qubit_gate(self):
        with pytest.raises(ValueError,
                           match="^decompose_single_qubit expects a single-qubit gate$"):
            decompose_single_qubit(builtin("CX"), builtin_gateset("cx"))


class TestGateSet:
    def test_builtin_gatesets_construct(self):
        for target in ("cx", "cz", "sqrt_xx", "ecr", "iswap"):
            for natives in ("s_sx", "class6"):
                gs = builtin_gateset(target, natives)
                assert gs.entangler.arity == 2

    def test_swap_entangler_rejected(self):
        with pytest.raises(ValueError):
            GateSet("bad", builtin("SWAP"), (builtin("S"), builtin("SQRT_X")))

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            builtin_gateset("xy")
        with pytest.raises(ValueError):
            builtin_gateset("cx", "weird")
