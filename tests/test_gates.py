import itertools
import random

import numpy as np
import pytest

import recliff.compiler
from recliff import (
    GateSet,
    Pauli,
    PauliProduct,
    append_gate,
    builtin,
    builtin_gateset,
    compile_with_iswap_heuristic,
    conjugate_product,
    decompose_single_qubit,
    identity,
    parse,
)
from recliff.circuit import DIALECT_GATES
from recliff.gates import TARGET_ENTANGLERS, GateDef

from conftest import ECR_IMAGES, SQRT_XX_IMAGES, images_tableau, reference_lut
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
            gen = PauliProduct.single(2, j, Pauli.X if kind == 0 else Pauli.Z)
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


def probe(t) -> GateDef:
    return GateDef("_probe", 2, t)


class TestCommutingLocalPauli:
    """A cx-like gate's one-local letter on each wire stays on that wire."""

    def test_cx(self):
        cx = builtin("CX")
        assert cx.entangler_class == "cx_like"
        assert cx.one_local_letter(0) == Pauli.Z
        assert cx.one_local_letter(1) == Pauli.X

    def test_ecr(self):
        ecr = builtin("ECR")
        assert ecr.entangler_class == "cx_like"
        assert ecr.one_local_letter(0) == Pauli.Z
        assert ecr.one_local_letter(1) == Pauli.X

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
                            sxx.semantics, PauliProduct.single(2, wire, p)
                        ).local(q)
                        != Pauli.I
                    ]
                )
                == 1
            ]
            assert stays == [Pauli.X]
            assert sxx.one_local_letter(wire) == Pauli.X

    def test_iswap_has_none(self):
        # no letter stays on its wire; the one-local letter hops instead
        iswap = builtin("ISWAP")
        assert iswap.entangler_class == "iswap_like"
        for wire in (0, 1):
            letter = iswap.one_local_letter(wire)
            img = conjugate_product(iswap.semantics, PauliProduct.single(2, wire, letter))
            assert img.local(wire) == Pauli.I and img.local(1 - wire) != Pauli.I

    def test_rejects_single_qubit_gate(self):
        h = builtin("H")
        assert h.entangler_class == "none"
        assert h.one_local_letter(0) is None


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
            img = conjugate_product(g.semantics, PauliProduct.single(2, wire, letter))
            supp = tuple(q for q in range(2) if img.local(q) != Pauli.I)
            if supp == (wire,):
                fixed[wire] = letter
                one_local[wire] = letter
            elif len(supp) == 1:
                one_local[wire] = letter
    return fixed, one_local


def old_classify(g, fixed):
    stays, crosses = [True, True], [True, True]
    for wire in (0, 1):
        for letter in (Pauli.X, Pauli.Y, Pauli.Z):
            img = conjugate_product(g.semantics, PauliProduct.single(2, wire, letter))
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
        if g.arity == 1:
            assert g.perm == (int(out_bits[0][2] * 2 + out_bits[1][2]),
                              int(out_bits[0][1] * 2 + out_bits[1][1]))
            assert g.bits16 is None and g.entangler_class == "none"
            assert g.one_local_letter(0) is None
            return
        bits = tuple(sum(int(out_bits[i][k]) << (3 - i) for i in range(4)) for k in range(16))
        assert g.perm is None
        assert g.bits16 == bits
        assert all(g.bits16_inv[v] == k for k, v in enumerate(bits))
        fixed, one_local = old_wire_letters(g)
        assert [g.one_local_letter(w) for w in (0, 1)] == one_local
        assert g.entangler_class == old_classify(g, fixed)


class TestSwapInsertionTable:
    """The swap-insertion sweep reads the native's table with its output
    wires exchanged in place of the native+SWAP composite gate."""

    @pytest.mark.parametrize("target", sorted(TARGET_ENTANGLERS))
    def test_matches_the_composite(self, monkeypatch, target):
        native = builtin_gateset(target).entangler
        t = append_gate(append_gate(identity(2), native, (0, 1)), builtin("SWAP"), (0, 1))
        composite = GateDef(f"{native.name}+SWAP", 2, t)
        assert composite.bits16 == tuple((b & 3) << 2 | b >> 2 for b in native.bits16)
        assert [composite.one_local_letter(w) for w in (0, 1)] == \
            [native.one_local_letter(w) for w in (0, 1)]
        other = {"cx_like": "iswap_like", "iswap_like": "cx_like"}
        assert composite.entangler_class == other[native.entangler_class]

        tables = []
        transfer = recliff.compiler._transfer_perms

        def counted(source_gate, out_bits, ua, ub):
            tables.append(out_bits)
            return transfer(source_gate, out_bits, ua, ub)

        monkeypatch.setattr(recliff.compiler, "_transfer_perms", counted)
        source_gate = "CX" if native.entangler_class == "iswap_like" else "ISWAP"
        source = parse(f"H 0\nTICK\n{source_gate} 0 1\nTICK\n{source_gate} 1 2\n")
        # A fresh gateset derives its step tables here; the shared one may
        # have derived them in an earlier test.
        shared = builtin_gateset(target)
        fresh = GateSet(shared.name, shared.entangler, shared.single_qubit_natives)
        res = compile_with_iswap_heuristic(source, fresh)
        assert res.permutation != (0, 1, 2)  # the swap-insertion mode ran
        assert tables and all(table == composite.bits16 for table in tables)


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
