"""Benchmark circuit construction: surface-code syndrome extraction and
seeded random Clifford circuits.

The surface-code generator emits the unitary one-round syndrome-extraction
subcircuit of the rotated code at distance d: a layer of Hadamards on the
X-check ancillas, four layers of CXs in a fixed zig-zag schedule, and a
closing Hadamard layer.  Measurements, resets and repetition are out of
scope; the object of interest is the depth-6 unitary itself with exactly
4d(d-1) CX gates and d^2 - 1 Hadamards.
"""

from __future__ import annotations

import random

from .circuit import Circuit, Instruction
from .gates import GateDef, builtin
from .pauli import _Record


class SurfaceCodeSpec(_Record):
    """Rotated surface code parameters; distance must be odd and >= 3."""

    distance: int

    def __post_init__(self) -> None:
        if self.distance < 3 or self.distance % 2 == 0:
            raise ValueError("distance must be an odd integer >= 3")


class RandomCircuitSpec(_Record):
    n: int
    entangler_layers: int
    seed: int
    entangler: GateDef

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("random circuits need at least 2 qubits")
        if self.entangler_layers < 0:
            raise ValueError("entangler layer count must be non-negative")
        if self.entangler.arity != 2:
            raise ValueError("entangler must be a two-qubit gate")


def _plaquettes(d: int):
    """Check sites of the rotated code, as (corner, kind) with kind X or Z.

    Data qubits live on the (row, col) grid [0,d)^2.  A check site at corner
    (r, c) touches the data qubits {(r,c), (r,c+1), (r+1,c), (r+1,c+1)} that
    fall on the grid.  Interior sites checkerboard by (r+c) parity; boundary
    sites survive only where their type matches the boundary (X checks on the
    top and bottom rows, Z checks on the left and right columns).
    """
    sites = []
    for r in range(-1, d):
        for c in range(-1, d):
            interior = 0 <= r < d - 1 and 0 <= c < d - 1
            kind = "X" if (r + c) % 2 == 0 else "Z"
            if interior:
                sites.append(((r, c), kind))
                continue
            top_bottom = (r == -1 or r == d - 1) and 0 <= c < d - 1
            left_right = (c == -1 or c == d - 1) and 0 <= r < d - 1
            if top_bottom and kind == "X":
                sites.append(((r, c), kind))
            elif left_right and kind == "Z":
                sites.append(((r, c), kind))
    return sites


# Corner visit orders for the four CX rounds.  The offset difference between
# the X and Z orders has even parity in every round, while adjacent X/Z sites
# differ by an odd-parity vector, so no data qubit is claimed twice per layer.
_X_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))
_Z_ORDER = ((0, 0), (1, 0), (0, 1), (1, 1))


def surface_code_syndrome_extraction(spec: SurfaceCodeSpec) -> Circuit:
    """Depth-6 unitary syndrome-extraction round on d^2 + (d^2 - 1) qubits."""
    d = spec.distance
    h = builtin("H")
    cx = builtin("CX")

    def data_index(r: int, c: int) -> int:
        return r * d + c

    sites = _plaquettes(d)
    ancilla_of = {site: d * d + i for i, (site, _kind) in enumerate(sites)}
    x_ancillas = [ancilla_of[site] for site, kind in sites if kind == "X"]

    h_layer = tuple(Instruction(h, (a,)) for a in sorted(x_ancillas))
    layers: list[tuple[Instruction, ...]] = [h_layer]
    for step in range(4):
        layer = []
        for site, kind in sites:
            r, c = site
            dr, dc = _X_ORDER[step] if kind == "X" else _Z_ORDER[step]
            rr, cc = r + dr, c + dc
            if not (0 <= rr < d and 0 <= cc < d):
                continue
            anc = ancilla_of[site]
            dat = data_index(rr, cc)
            qubits = (anc, dat) if kind == "X" else (dat, anc)
            layer.append(Instruction(cx, qubits))
        layers.append(tuple(layer))
    layers.append(h_layer)
    return Circuit(2 * d * d - 1, tuple(layers))


def random_clifford_circuit(spec: RandomCircuitSpec) -> Circuit:
    """Seed-deterministic alternation of random single-qubit Cliffords and
    random disjoint entangler pairings.

    Each single-qubit round draws uniformly from the 24 Cliffords, emitted as
    a basis-change layer followed by a Pauli layer so the circuit stays within
    the text dialect.  Each entangler round pairs a random shuffle of the
    qubits into floor(n/2) disjoint pairs.
    """
    rng = random.Random(spec.seed)
    classes = [builtin(n) for n in ("I", "H", "H_XY", "H_YZ", "C_XYZ", "C_ZYX")]
    paulis = [builtin(n) for n in ("I", "X", "Y", "Z")]

    layers: list[tuple[Instruction, ...]] = []

    def single_round() -> None:
        class_layer = []
        pauli_layer = []
        for q in range(spec.n):
            cls = rng.choice(classes)
            pauli = rng.choice(paulis)
            if cls.name != "I":
                class_layer.append(Instruction(cls, (q,)))
            if pauli.name != "I":
                pauli_layer.append(Instruction(pauli, (q,)))
        if class_layer:
            layers.append(tuple(class_layer))
        if pauli_layer:
            layers.append(tuple(pauli_layer))

    single_round()
    for _ in range(spec.entangler_layers):
        order = list(range(spec.n))
        rng.shuffle(order)
        layer = []
        for i in range(0, spec.n - 1, 2):
            pair = (order[i], order[i + 1])
            layer.append(Instruction(spec.entangler, pair))
        layers.append(tuple(layer))
        single_round()

    # Anchor qubits that drew only identities, so the emitted text round-trips
    # with the same qubit count.
    touched = {q for layer in layers for inst in layer for q in inst.qubits}
    untouched = [q for q in range(spec.n) if q not in touched]
    if untouched:
        ident = builtin("I")
        layers.append(tuple(Instruction(ident, (q,)) for q in untouched))
    return Circuit(spec.n, tuple(layers))
