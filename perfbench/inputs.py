"""Seeded benchmark inputs, written as circuit-dialect text.

The generators live here rather than in ``recliff.generators`` so that a
change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import random

import oracle

SINGLE_QUBIT = ("H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG", "H_XY", "H_YZ",
                "C_XYZ", "C_ZYX", "X", "Y", "Z")

# Corner visit orders of the four CX rounds of the rotated surface code; the
# X and Z orders differ so that no data qubit is used twice in one layer.
_X_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))
_Z_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))


def surface_code_round(d: int, seed: int) -> oracle.Circuit:
    """One unitary syndrome-extraction round of the distance-d rotated code.

    Data qubits sit on a d x d grid and each of the d^2 - 1 checks gets an
    ancilla (n = 2d^2 - 1).  X checks are H, four CX rounds, H.  The qubit
    numbering is a seeded permutation, so every seed is a different file with
    the same structure.
    """
    sites = []
    for r in range(-1, d):
        for c in range(-1, d):
            kind = "X" if (r + c) % 2 == 0 else "Z"
            interior = 0 <= r < d - 1 and 0 <= c < d - 1
            top_bottom = r in (-1, d - 1) and 0 <= c < d - 1 and kind == "X"
            left_right = c in (-1, d - 1) and 0 <= r < d - 1 and kind == "Z"
            if interior or top_bottom or left_right:
                sites.append(((r, c), kind))
    n = 2 * d * d - 1
    label = list(range(n))
    random.Random(seed).shuffle(label)
    ancilla = {site: d * d + i for i, (site, _) in enumerate(sites)}
    h_layer = [("H", (label[ancilla[s]],)) for s, kind in sites if kind == "X"]
    layers = [h_layer]
    for step in range(4):
        layer = []
        for site, kind in sites:
            dr, dc = (_X_ORDER if kind == "X" else _Z_ORDER)[step]
            rr, cc = site[0] + dr, site[1] + dc
            if 0 <= rr < d and 0 <= cc < d:
                anc, dat = label[ancilla[site]], label[rr * d + cc]
                layer.append(("CX", (anc, dat) if kind == "X" else (dat, anc)))
        layers.append(layer)
    layers.append(list(h_layer))
    return oracle.Circuit(n, layers)


def random_circuit(rng: random.Random, n: int, entangler_layers: int,
                   entangler: str) -> oracle.Circuit:
    """Random single-qubit layers between random perfect pairings.

    Every qubit takes part in an entangler when n is even, so the qubit count
    read back from the text is always n.
    """
    def single_layer():
        return [(rng.choice(SINGLE_QUBIT), (q,)) for q in range(n) if rng.random() < 0.8]

    layers = [single_layer()]
    for _ in range(entangler_layers):
        order = list(range(n))
        rng.shuffle(order)
        layers.append([(entangler, (order[i], order[i + 1])) for i in range(0, n - 1, 2)])
        layers.append(single_layer())
    return oracle.Circuit(n, [layer for layer in layers if layer])


# Each native set's single-qubit gates, from the README, paired with a gate of
# the same set that changes a different Pauli letter (so the swap is never a
# Pauli-frame change).
MUTATION = {"S": "SQRT_X", "SQRT_X": "S", "H": "H_XY", "H_XY": "H_YZ",
            "H_YZ": "H", "C_XYZ": "H", "C_ZYX": "H"}


def mutants(text: str, rng: random.Random):
    """Yield copies of ``text`` with one single-qubit gate replaced, in a
    seeded order over the eligible lines."""
    lines = text.split("\n")
    eligible = [i for i, line in enumerate(lines) if line.split(" ", 1)[0] in MUTATION]
    rng.shuffle(eligible)
    for i in eligible:
        name, rest = lines[i].split(" ", 1)
        mutated = list(lines)
        mutated[i] = f"{MUTATION[name]} {rest}"
        yield "\n".join(mutated)
