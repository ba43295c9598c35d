import hashlib

import pytest

from recliff import (
    Pauli,
    PauliProduct,
    RandomCircuitSpec,
    SurfaceCodeSpec,
    builtin,
    depth,
    emit,
    from_circuit,
    gate_counts,
    parse,
    random_clifford_circuit,
    surface_code_syndrome_extraction,
    two_qubit_count,
)

# d=3 rotated-code layout, written out by hand: data index = 3*row + col,
# stabilizer supports listed per check type.
D3_X_CHECKS = [
    {1, 2},
    {0, 1, 3, 4},
    {4, 5, 7, 8},
    {6, 7},
]
D3_Z_CHECKS = [
    {0, 3},
    {1, 2, 4, 5},
    {3, 4, 6, 7},
    {5, 8},
]


class TestSurfaceCode:
    def test_d11_counts(self):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(11))
        assert gate_counts(c) == {"CX": 440, "H": 120}
        assert depth(c) == 6
        assert c.n == 241

    def test_d3_counts(self):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(3))
        assert gate_counts(c) == {"CX": 24, "H": 8}

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13, 15, 17])
    def test_closed_forms(self, d):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(d))
        counts = gate_counts(c)
        assert counts["CX"] == 4 * d * (d - 1)
        assert counts["H"] == d * d - 1
        assert depth(c) == 6
        assert c.n == 2 * d * d - 1

    def test_invalid_distance(self):
        for d in (2, 4, 1, -3):
            with pytest.raises(ValueError):
                SurfaceCodeSpec(d)

    def test_round_trips_through_text(self):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(5))
        assert parse(emit(c)) == c

    def test_d3_tableau_matches_hand_built_stabilizer_relations(self):
        """Independent check from the hand-written d=3 layout.

        The unitary round must conjugate each ancilla's Z into (Z-checks) the
        data-Z product times its own Z, or (X-checks, conjugated by the H
        layers) the data-X product times its own Z; data-qubit generators pick
        up X on every ancilla whose check they anticommute with.
        """
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(3))
        images = from_circuit(c).images()
        n = c.n

        # identify ancilla indices by their H participation: X-ancillas are
        # exactly the qubits with H gates
        h_qubits = sorted(
            {inst.qubits[0] for inst in c.instructions() if inst.gate.name == "H"}
        )
        assert len(h_qubits) == 4
        # ancillas are 9..16 in site scan order; match each X-ancilla to the
        # unique hand-listed X-check its image reproduces
        x_images = {}
        for anc in h_qubits:
            img = images[2 * anc + 1]
            assert img.sign == 1
            assert img.local(anc) == Pauli.Z
            data = {q for q in range(9) if img.local(q) == Pauli.X}
            others = [
                q for q in range(n)
                if q != anc and q > 8 and img.local(q) != Pauli.I
            ]
            assert others == []
            x_images[anc] = data
        assert sorted(x_images.values(), key=sorted) == sorted(
            D3_X_CHECKS, key=sorted
        )

        z_ancillas = [q for q in range(9, n) if q not in h_qubits]
        z_images = {}
        for anc in z_ancillas:
            img = images[2 * anc + 1]
            assert img.sign == 1
            assert img.local(anc) == Pauli.Z
            data = {q for q in range(9) if img.local(q) == Pauli.Z}
            z_images[anc] = data
        assert sorted(z_images.values(), key=sorted) == sorted(
            D3_Z_CHECKS, key=sorted
        )

        # data-qubit images: X_d spreads X onto the Z-ancillas of its checks,
        # Z_d spreads X onto the X-ancillas of its checks
        z_anc_of = {frozenset(v): k for k, v in z_images.items()}
        x_anc_of = {frozenset(v): k for k, v in x_images.items()}
        for d in range(9):
            img_x = images[2 * d]
            want = {z_anc_of[fs] for fs in z_anc_of if d in fs}
            got = {q for q in range(9, n) if img_x.local(q) != Pauli.I}
            assert got == want
            assert all(img_x.local(q) == Pauli.X for q in got)
            img_z = images[2 * d + 1]
            want = {x_anc_of[fs] for fs in x_anc_of if d in fs}
            got = {q for q in range(9, n) if img_z.local(q) != Pauli.I}
            assert got == want


class TestRandomClifford:
    def test_deterministic(self):
        spec = RandomCircuitSpec(n=4, entangler_layers=6, seed=7, entangler=builtin("CX"))
        assert emit(random_clifford_circuit(spec)) == emit(random_clifford_circuit(spec))

    def test_different_seeds_differ(self):
        a = RandomCircuitSpec(n=4, entangler_layers=6, seed=7, entangler=builtin("CX"))
        b = RandomCircuitSpec(n=4, entangler_layers=6, seed=8, entangler=builtin("CX"))
        assert emit(random_clifford_circuit(a)) != emit(random_clifford_circuit(b))

    def test_two_qubits_one_layer_has_one_entangler(self):
        spec = RandomCircuitSpec(n=2, entangler_layers=1, seed=0, entangler=builtin("CX"))
        c = random_clifford_circuit(spec)
        assert gate_counts(c).get("CX") == 1

    def test_zero_entangler_layers(self):
        spec = RandomCircuitSpec(n=3, entangler_layers=0, seed=1, entangler=builtin("CX"))
        c = random_clifford_circuit(spec)
        assert two_qubit_count(c) == 0

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            RandomCircuitSpec(n=1, entangler_layers=1, seed=0, entangler=builtin("CX"))
        with pytest.raises(ValueError, match="^entangler layer count must be non-negative$"):
            RandomCircuitSpec(n=2, entangler_layers=-1, seed=0, entangler=builtin("CX"))
        with pytest.raises(ValueError):
            RandomCircuitSpec(n=2, entangler_layers=1, seed=0, entangler=builtin("H"))

    def test_entangler_count_per_layer(self):
        spec = RandomCircuitSpec(n=5, entangler_layers=4, seed=3, entangler=builtin("CZ"))
        c = random_clifford_circuit(spec)
        assert two_qubit_count(c) == 4 * (5 // 2)


# The sha256 of the emitted text of distances 3-11, then of random circuits
# over a grid of seeds, sizes, entangler-layer counts and entanglers, as the
# generators built them from per-gate instructions; building them as column
# layers must leave every byte and every random draw as it was.
GENERATED_DIGEST = "920ec20b583d144b8e8f6c04276b2246c686aee107873bbdfb2857d73f7b9a98"


def test_emitted_text_is_unchanged():
    h = hashlib.sha256()
    for d in (3, 5, 7, 9, 11):
        h.update(emit(surface_code_syndrome_extraction(SurfaceCodeSpec(d))).encode())
    for seed in range(12):
        for n in (2, 3, 5, 8, 13):
            for layers in (0, 1, 4):
                for entangler in ("CX", "CZ", "ISWAP", "SQRT_XX", "ECR"):
                    h.update(emit(random_clifford_circuit(RandomCircuitSpec(
                        n=n, entangler_layers=layers, seed=seed,
                        entangler=builtin(entangler)))).encode())
    assert h.hexdigest() == GENERATED_DIGEST
