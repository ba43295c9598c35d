"""Equivalence oracle for the benchmark, sharing no code with ``recliff``.

Gate semantics come from the circuit dialect (stim's gate definitions, plus
the README's circuit identity for ``ECR``): each gate is written down as a
unitary matrix, and its action on Pauli operators is read off once, at import,
by literal matrix conjugation.  Circuits are then propagated on a qubit-major
tableau whose rows are Python-int bitmasks over the 2n generators
(bit ``2j`` is the image of ``X_j``, bit ``2j+1`` the image of ``Z_j``), with
one more bitmask for the signs.  A gate updates every generator at once with
a few bitwise operations per wire.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_MATRICES = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}

_S = np.diag([1, 1j]).astype(complex)
_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_C_XYZ = 0.5 * np.array([[1 - 1j, -1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

#: Unitaries of every dialect gate.  Two-qubit matrices act on |a b> with the
#: first listed qubit ``a`` as the most significant factor.
UNITARIES: dict[str, np.ndarray] = {
    "I": _I2,
    "X": _X,
    "Y": _Y,
    "Z": _Z,
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": _S,
    "S_DAG": _S.conj().T,
    "SQRT_X": _SQRT_X,
    "SQRT_X_DAG": _SQRT_X.conj().T,
    "H_XY": (_X + _Y) / np.sqrt(2),
    "H_YZ": (_Y + _Z) / np.sqrt(2),
    "C_XYZ": _C_XYZ,
    "C_ZYX": _C_XYZ.conj().T,
    "CX": _CX,
    "CZ": _CZ,
    "SWAP": _SWAP,
    "ISWAP": np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "SQRT_XX": (np.eye(4) - 1j * np.kron(_X, _X)) / np.sqrt(2),
    "CXSWAP": _SWAP @ _CX,
    "CZSWAP": _SWAP @ _CZ,
    # README: ECR is S on the control and sqrt(X) on the target, then CX, then X
    # on the control.
    "ECR": np.kron(_X, _I2) @ _CX @ np.kron(_S, _SQRT_X),
}
ALIASES = {"CNOT": "CX"}

_LETTERS = "IXYZ"
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def pauli_matrix(letters: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for letter in letters:
        out = np.kron(out, PAULI_MATRICES[letter])
    return out


def conjugate_pauli(u: np.ndarray, letters: str) -> tuple[int, str]:
    """(sign, letters) with u P u^dagger = sign * Q, by trace projection."""
    image = u @ pauli_matrix(letters) @ u.conj().T
    dim = image.shape[0]
    for cand in itertools.product(_LETTERS, repeat=len(letters)):
        coeff = np.trace(pauli_matrix("".join(cand)).conj().T @ image) / dim
        if abs(coeff) > 1e-9:
            if abs(abs(coeff.real) - 1) > 1e-9 or abs(coeff.imag) > 1e-9:
                raise ValueError("not a Clifford unitary")
            return (1 if coeff.real > 0 else -1), "".join(cand)
    raise ValueError("zero image")


@dataclass(frozen=True)
class GateRule:
    """Bitmask update rule of one gate, read off its unitary.

    ``linear[i]`` lists, for output bit i of the local (x0, z0, x1, z1, ...)
    vector, which input bits XOR into it; ``negative`` lists the local Pauli
    strings whose image carries a minus sign.
    """

    name: str
    arity: int
    linear: tuple[tuple[int, ...], ...]
    negative: tuple[str, ...]


def _rule(name: str, u: np.ndarray) -> GateRule:
    arity = {2: 1, 4: 2}[u.shape[0]]
    cols = []  # image bits of each input basis bit (x0, z0, x1, z1)
    for wire in range(arity):
        for letter in "XZ":
            local = ["I"] * arity
            local[wire] = letter
            _, img = conjugate_pauli(u, "".join(local))
            cols.append([b for l in img for b in _BITS[l]])
    linear = tuple(
        tuple(i for i in range(2 * arity) if cols[i][o]) for o in range(2 * arity)
    )
    negative = tuple(
        "".join(p)
        for p in itertools.product(_LETTERS, repeat=arity)
        if conjugate_pauli(u, "".join(p))[0] < 0
    )
    return GateRule(name, arity, linear, negative)


RULES: dict[str, GateRule] = {name: _rule(name, u) for name, u in UNITARIES.items()}


def rule(name: str) -> GateRule:
    return RULES[ALIASES.get(name, name)]


# ---------------------------------------------------------------------------
# Circuit text


@dataclass
class Circuit:
    """Parsed dialect text: qubit count plus layers of (gate name, qubits)."""

    n: int
    layers: list[list[tuple[str, tuple[int, ...]]]]

    def instructions(self):
        for layer in self.layers:
            yield from layer


def parse(text: str, n: int | None = None) -> Circuit:
    """Parse the circuit dialect; ``n`` widens the qubit count if given."""
    layers: list[list[tuple[str, tuple[int, ...]]]] = [[]]
    max_q = -1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *targets = line.split()
        if name == "TICK":
            layers.append([])
            continue
        if name.startswith("QUBIT_COORDS"):
            continue
        arity = rule(name).arity
        qubits = [int(t) for t in targets]
        if not qubits or len(qubits) % arity:
            raise ValueError(f"bad target count in {line!r}")
        for i in range(0, len(qubits), arity):
            layers[-1].append((ALIASES.get(name, name), tuple(qubits[i : i + arity])))
        max_q = max(max_q, *qubits)
    width = max_q + 1 if n is None else max(n, max_q + 1)
    return Circuit(width, [layer for layer in layers if layer])


def emit(c: Circuit) -> str:
    return "\nTICK\n".join(
        "\n".join(f"{name} {' '.join(map(str, qs))}" for name, qs in layer)
        for layer in c.layers
    ) + "\n"


# ---------------------------------------------------------------------------
# Tableau


class Tableau:
    """Qubit-major bitmask tableau: ``xs[q]``, ``zs[q]`` and ``sign`` are
    bitmasks over generators; bit g set in ``sign`` means image g is negative."""

    __slots__ = ("n", "xs", "zs", "sign", "full")

    def __init__(self, n: int):
        self.n = n
        self.xs = [1 << (2 * q) for q in range(n)]
        self.zs = [1 << (2 * q + 1) for q in range(n)]
        self.sign = 0
        self.full = (1 << (2 * n)) - 1

    def apply(self, name: str, qubits: tuple[int, ...]) -> None:
        r = rule(name)
        bits = []
        for q in qubits:
            bits += (self.xs[q], self.zs[q])
        new = []
        for sources in r.linear:
            v = 0
            for i in sources:
                v ^= bits[i]
            new.append(v)
        if r.negative:
            masks = []
            for w in range(r.arity):
                x, z = bits[2 * w], bits[2 * w + 1]
                masks.append({"I": self.full ^ (x | z), "X": x & ~z, "Y": x & z, "Z": z & ~x})
            flip = 0
            for letters in r.negative:
                m = masks[0][letters[0]]
                for w in range(1, r.arity):
                    m &= masks[w][letters[w]]
                flip |= m
            self.sign ^= flip
        for w, q in enumerate(qubits):
            self.xs[q], self.zs[q] = new[2 * w], new[2 * w + 1]

    def image(self, g: int) -> tuple[int, str]:
        """(sign, letters) of generator g's image, qubit 0 first."""
        letters = "".join(
            "IXZY"[((self.xs[q] >> g) & 1) | (((self.zs[q] >> g) & 1) << 1)]
            for q in range(self.n)
        )
        return (-1 if (self.sign >> g) & 1 else 1), letters


def simulate(c: Circuit) -> Tableau:
    t = Tableau(c.n)
    for name, qubits in c.instructions():
        t.apply(name, qubits)
    return t


def apply_frame(t: Tableau, frame: str) -> None:
    """Append a Pauli product in the README syntax (``+X0*Z3``, ``+I``) as gates."""
    body = frame.lstrip("+-")
    if body == "I":
        return
    for term in body.split("*"):
        t.apply(term[0], (int(term[1:]),))


def columns(t: Tableau) -> list[tuple[int, int]]:
    return list(zip(t.xs, t.zs))


def equal_relabelled(out: Tableau, src: Tableau, sigma, *, signs: bool) -> bool:
    """``out`` equals ``src`` with wire q renamed sigma[q]; signs optional."""
    if out.n != src.n or sorted(sigma) != list(range(src.n)):
        return False
    if signs and out.sign != src.sign:
        return False
    return all(
        out.xs[sigma[q]] == src.xs[q] and out.zs[sigma[q]] == src.zs[q]
        for q in range(src.n)
    )


def equivalent_up_to_frame(a: Tableau, b: Tableau) -> bool:
    """Letters agree: a Pauli frame can always repair the signs of a
    unitary tableau, since its images form a symplectic basis."""
    return a.n == b.n and a.xs == b.xs and a.zs == b.zs


def permutation_up_to_frame(out: Tableau, src: Tableau) -> tuple[int, ...] | None:
    """The relabelling sigma with out == relabel(src, sigma) up to frame, if any.

    A unitary tableau's 2n x 2n bit matrix is invertible, so its wire columns
    are distinct and matching columns by value finds the only candidate.
    """
    if out.n != src.n:
        return None
    where = {col: q for q, col in enumerate(columns(out))}
    sigma = tuple(where.get(col, -1) for col in columns(src))
    return sigma if -1 not in sigma else None
