import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recliff import (
    Pauli,
    PauliProduct,
    Tableau,
    certify,
    commutes,
    support,
)
from recliff.tableau import from_circuit, identity
from recliff import Circuit, Instruction, builtin, random_clifford_circuit, RandomCircuitSpec

from conftest import (
    FrameSolveError, multiply, phase_exponent, reference_solve_frame, single, solve_frame,
)
from matrix_oracle import pauli_matrix


def pp(text, n=None):
    return PauliProduct.from_string(text, n)


class TestConstruction:
    def test_single(self):
        p = single(3, 1, Pauli.Y)
        assert p.local(0) == Pauli.I
        assert p.local(1) == Pauli.Y
        assert str(p) == "+Y1"

    def test_string_round_trip(self):
        for text in ("+X0", "-X0*Y2", "+I", "-Z0*X1*X2*X3"):
            assert str(pp(text)) == text

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            PauliProduct(2, 0, 0, sign=2)

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            PauliProduct(1, x=2)

    def test_rejects_duplicate_qubit_in_string(self):
        with pytest.raises(ValueError):
            pp("+X0*Z0")

    @pytest.mark.parametrize("text", [
        "X1_0", "X+1", "X-1", "X 1", "X\u0663", "X\u00b2", "Xa", "X", "W0", "+X0*", "x0",
    ])
    def test_index_must_be_ascii_decimal(self, text):
        with pytest.raises(ValueError, match="^bad Pauli term "):
            pp(text)

    def test_input_check_messages(self):
        with pytest.raises(ValueError, match="^not a Pauli letter: 'Q'$"):
            Pauli.from_letter("Q")
        with pytest.raises(ValueError, match="^qubit count must be non-negative$"):
            PauliProduct(-1)
        with pytest.raises(ValueError, match=r"^empty Pauli string: '\+'$"):
            pp("+")
        with pytest.raises(ValueError, match="^qubit 2 out of range for n=2$"):
            pp("+X0", 2).local(2)
        with pytest.raises(ValueError, match="^size mismatch: 1 vs 2$"):
            commutes(pp("+X0", 1), pp("+X0", 2))


def exact(a, b):
    """a*b as (product with sign +1, exponent of i) from the word-wide routine."""
    return PauliProduct(a.n, a.x ^ b.x, a.z ^ b.z), phase_exponent(a, b)


class TestMultiply:
    def test_distributive_example(self):
        # (X0 X1) * (Z0) * (Z0 Z1) has the letters of X0 Y1
        acc = multiply(multiply(pp("+X0*X1", 2), pp("+Z0", 2)), pp("+Z0*Z1", 2))
        want = pp("+X0*Y1", 2)
        assert (acc.x, acc.z) == (want.x, want.z)

    def test_identity_neutral(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(1, 6)
            p = PauliProduct(
                n,
                rng.getrandbits(n),
                rng.getrandbits(n),
                rng.choice((1, -1)),
            )
            letters, e = exact(PauliProduct(n), p)
            assert (letters.x, letters.z) == (p.x, p.z)
            assert e == (0 if p.sign > 0 else 2)
            assert multiply(PauliProduct(n), p) == p

    def test_x_times_z_is_minus_i_y(self):
        letters, e = exact(pp("+X0", 1), pp("+Z0", 1))
        assert letters == pp("+Y0", 1) and e == 3
        # cross-check against explicit 2x2 matrices
        got = pauli_matrix(pp("+X0", 1)) @ pauli_matrix(pp("+Z0", 1))
        assert np.allclose(got, -1j * pauli_matrix(pp("+Y0", 1)))

    def test_size_mismatch(self):
        # the reference the frame-solve tests multiply with refuses mixed sizes
        with pytest.raises(ValueError):
            multiply(pp("+X0", 1), pp("+X0", 2))

    def test_exact_against_matrices(self):
        # every 1- and 2-qubit signed pair, phase included
        for n in (1, 2):
            ops = [
                PauliProduct(n, x, z, s)
                for x in range(2 ** n)
                for z in range(2 ** n)
                for s in (1, -1)
            ]
            for a, b in itertools.product(ops, repeat=2):
                letters, e = exact(a, b)
                got = pauli_matrix(a) @ pauli_matrix(b)
                want = pauli_matrix(letters) * 1j ** e
                assert np.allclose(got, want), (str(a), str(b))
                assert multiply(a, b) == PauliProduct(n, letters.x, letters.z,
                                                      -1 if e >= 2 else 1)

    def test_associative_random(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 6)
            ops = [
                PauliProduct(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
                for _ in range(3)
            ]
            a, b, c = ops
            ab, e1 = exact(a, b)
            left, e2 = exact(ab, c)
            bc, e3 = exact(b, c)
            right, e4 = exact(a, bc)
            assert (left.x, left.z) == (right.x, right.z)
            # phases must agree mod 4
            assert (e1 + e2) % 4 == (e3 + e4) % 4


class TestCommutes:
    def test_canonical_anticommuting_pair(self):
        assert not commutes(pp("+X0", 1), pp("+Z0", 1))

    def test_xx_vs_zz(self):
        assert commutes(pp("+X0*X1", 2), pp("+Z0*Z1", 2))

    def test_self_commutes(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(1, 8)
            p = PauliProduct(n, rng.getrandbits(n), rng.getrandbits(n))
            assert commutes(p, p)

    def test_exhaustive_against_matrices(self):
        # all 16 one-qubit and all 256 two-qubit pairs
        for n in (1, 2):
            ops = [PauliProduct(n, x, z) for x in range(2 ** n) for z in range(2 ** n)]
            for a, b in itertools.product(ops, repeat=2):
                ma, mb = pauli_matrix(a), pauli_matrix(b)
                assert commutes(a, b) == np.allclose(ma @ mb, mb @ ma)


class TestSupport:
    def test_mixed(self):
        assert support(pp("+X0*Z1*Y2", 3)) == (0, 1, 2)

    def test_identity(self):
        assert support(PauliProduct(4)) == ()

    def test_weight_four(self):
        assert support(pp("+Z0*X1*X2*X3", 4)) == (0, 1, 2, 3)


# support and PauliProduct.__str__ as they were before they became linear in
# n (a shift per bit, and a Pauli per term), kept as references.


def old_support(p):
    bits = p.x | p.z
    out = []
    j = 0
    while bits:
        if bits & 1:
            out.append(j)
        bits >>= 1
        j += 1
    return tuple(out)


def old_str(p):
    head = "+" if p.sign > 0 else "-"
    if p.is_identity():
        return head + "I"
    return head + "*".join(f"{p.local(j).letter}{j}" for j in old_support(p))


class TestLinearTextAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 140).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1),
        st.sampled_from([1, -1]))))
    def test_support_and_str(self, parts):
        p = PauliProduct(*parts)
        assert support(p) == old_support(p)
        assert str(p) == old_str(p)

    def test_sparse_and_dense_at_scale(self):
        rng = random.Random(5)
        n = 3001
        for x, z in ((rng.getrandbits(n), rng.getrandbits(n)), (1 << (n - 1), 1),
                     (0, 1 << 1500)):
            p = PauliProduct(n, x, z, -1)
            assert support(p) == old_support(p)
            assert str(p) == old_str(p)


def _random_tableau(n, seed):
    if n == 1:
        from recliff.tableau import append_gate

        rng = random.Random(seed)
        t = identity(1)
        for _ in range(4):
            t = append_gate(t, builtin(rng.choice(["S", "SQRT_X", "H"])), (0,))
        return t
    spec = RandomCircuitSpec(n=n, entangler_layers=3, seed=seed, entangler=builtin("CX"))
    return from_circuit(random_clifford_circuit(spec))


class TestSolveFrame:
    """The two-tableau oracle's frame solve, against brute force and the
    generator-major reference."""

    def test_all_positive_gives_identity(self):
        t = _random_tableau(3, seed=5)
        f = solve_frame(t, 0)
        assert f.is_identity()

    def test_matches_brute_force(self):
        n = 3
        t = _random_tableau(n, seed=9)
        images = t.images()
        for flipped in range(2 * n):
            f = solve_frame(t, 1 << flipped)
            matches = [
                PauliProduct(n, x, z)
                for x in range(2 ** n)
                for z in range(2 ** n)
                if all(
                    (not commutes(PauliProduct(n, x, z), images[g])) == (g == flipped)
                    for g in range(2 * n)
                )
            ]
            assert len(matches) == 1
            assert (f.x, f.z) == (matches[0].x, matches[0].z)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_flip_patterns(self, n):
        t = _random_tableau(n, seed=20 + n)
        images = t.images()
        for flips in range(2 ** (2 * n)):
            f = solve_frame(t, flips)
            assert f == reference_solve_frame(images, flips)
            for g, img in enumerate(images):
                assert (not commutes(f, img)) == bool((flips >> g) & 1)

    def test_matches_image_reference_on_random_patterns(self):
        rng = random.Random(77)
        for n in range(1, 11):
            for seed in range(3):
                t = _random_tableau(n, seed=100 * n + seed)
                images = t.images()
                for _ in range(20):
                    flips = rng.getrandbits(2 * n)
                    assert solve_frame(t, flips) == reference_solve_frame(images, flips)

    def test_empty_tableau(self):
        assert solve_frame(identity(0), 0) == PauliProduct(0)

    def test_size_mismatch(self):
        # a flag on generator 4 does not exist on 2 qubits
        with pytest.raises(ValueError, match="flip mask"):
            solve_frame(identity(2), 1 << 4)

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="flip mask"):
            solve_frame(identity(2), -1)

    def test_inconsistent_inputs_detected(self):
        # X0 listed twice cannot be a generating set
        images = [pp("+X0", 1), pp("+X0", 1)]
        flips = 0b10
        with pytest.raises(FrameSolveError):
            solve_frame(Tableau.from_images(1, images), flips)
        with pytest.raises(FrameSolveError):
            reference_solve_frame(images, flips)


class TestFrameReadout:
    """The certificate reads the frame off its signs; the oracle solves it."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_sign_pattern_of_a_relabelling(self, n):
        for sigma in itertools.permutations(range(n)):
            rows = identity(n).relabel_wires(sigma)
            for flips in range(2 ** (2 * n)):
                t = Tableau(n, rows._x, rows._z, flips)
                assert t._pauli_permutation() == (sigma, solve_frame(t, flips))

    def test_random_sign_patterns(self):
        rng = random.Random(78)
        for n in (5, 17, 70):
            sigma = tuple(rng.sample(range(n), n))
            rows = identity(n).relabel_wires(sigma)
            for _ in range(20):
                flips = rng.getrandbits(2 * n)
                t = Tableau(n, rows._x, rows._z, flips)
                assert t._pauli_permutation() == (sigma, solve_frame(t, flips))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_appended_pauli_layer(self, n):
        spec = RandomCircuitSpec(n=n, entangler_layers=3, seed=30 + n, entangler=builtin("CX"))
        c = random_clifford_circuit(spec)
        t = from_circuit(c)
        for x in range(2 ** n):
            for z in range(2 ** n):
                frame = PauliProduct(n, x, z)
                layer = tuple(Instruction(builtin(frame.local(q).letter), (q,))
                              for q in support(frame))
                framed = Circuit(n, c.layers + (layer,))
                flips = t._sign ^ from_circuit(framed)._sign
                assert certify(framed, c) == (tuple(range(n)), frame)
                assert solve_frame(t, flips) == frame

    def test_rows_that_are_not_single_bits(self):
        assert Tableau(1, [0b11], [0b10], 0)._pauli_permutation() is None  # X0 -> Y0
        assert Tableau(1, [0b10], [0b01], 0)._pauli_permutation() is None  # H
        assert Tableau(1, [0], [0b11], 0)._pauli_permutation() is None
        # Rows no unitary tableau has: the readout checks every row itself.
        two_bit_x = Tableau(2, [0b0101, 0b0001], [0b1000, 0b0010], 0)
        assert two_bit_x._pauli_permutation() is None
        x_on_a_z_bit = Tableau(2, [0b0010, 0b0001], [0b0100, 0b0010], 0)
        assert x_on_a_z_bit._pauli_permutation() is None


# Exponent of i in the single-qubit product a*b, with Y = i*X*Z, indexed by
# Pauli codes (I=0, Z=1, X=2, Y=3): the per-qubit table the word-wide
# routine replaces.
PHASE_TABLE = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)


class TestPhaseExponent:
    def test_matches_per_qubit_table_on_random_pairs(self):
        rng = random.Random(41)
        for _ in range(2000):
            n = rng.randint(0, 70)
            a = PauliProduct(n, rng.getrandbits(n) if n else 0,
                             rng.getrandbits(n) if n else 0, rng.choice((1, -1)))
            b = PauliProduct(n, rng.getrandbits(n) if n else 0,
                             rng.getrandbits(n) if n else 0, rng.choice((1, -1)))
            want = (0 if a.sign > 0 else 2) + (0 if b.sign > 0 else 2)
            want += sum(PHASE_TABLE[a.local(q)][b.local(q)] for q in range(n))
            assert phase_exponent(a, b) == want % 4

    def test_matches_dense_matrices(self):
        for ca, cb in itertools.product(range(4), repeat=2):
            a, b = PauliProduct(1, ca >> 1, ca & 1), PauliProduct(1, cb >> 1, cb & 1)
            prod = pauli_matrix(a) @ pauli_matrix(b)
            letters = pauli_matrix(PauliProduct(1, a.x ^ b.x, a.z ^ b.z))
            assert np.allclose(prod, 1j ** phase_exponent(a, b) * letters)
