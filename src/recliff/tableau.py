"""Stabilizer tableaux: the images of all generators X_j, Z_j under a circuit.

A tableau records how a unitary stabilizer circuit propagates each generator,
image(P) = C P C-dagger, with gates folded in time order.  Two circuits are
equivalent iff their tableaux are equal.

Storage is qubit-major and bit-packed, as in Aaronson & Gottesman and Stim:
for each qubit q one X row and one Z row, each a Python int over the 2n
generators (bit g is set when image g has an X, or Z, bit on q), plus one
sign int (bit g set when image g carries a minus sign).  Generators are
numbered in the interleaved order X_0, Z_0, X_1, Z_1, ...  A gate touches
only the rows of its own wires, so applying it is a handful of word-wide
XOR/AND operations on all 2n generators at once, whatever n is: each gate
carries them, and those of its inverse, as straight-line kernels compiled
from its update rule.  :meth:`Tableau._apply_layers` applies a whole circuit,
read as its layers' gate and qubit columns, in one loop; every builder here,
and :func:`append_gate` for a single gate, goes through it.  A
circuit's qubits are checked once, in one pass over its columns, before its
first simulation or walk (:func:`_checked`): each gate's arity and range, and
each layer's use of a qubit at most once; a circuit that
:func:`circuit.parse` read is not, as the parser checked every gate.

:func:`certify` checks two circuits through one map, a b^-1: a Pauli times
a wire relabelling exactly when they agree up to both.  When their entangler
layers align, as a compile's output and its source do, the map is walked a
layer at a time as one single-qubit Clifford per wire times a relabelling:
a run of one gate costs a lookup in its 64-entry table (``_TABLES``, a's by
``kernel``, b's by ``kernel_inv``), a pair of entanglers in a 2-qubit step
(``_STEPS``), each made once by its store's one fill, and a bad gate raises
before any n-qubit tableau.  Otherwise b's inverse, then a, fold onto one
tableau, whose rows are single bits when the two agree: the relabelling is
read off the rows, and the signs make each wire's state.  The walk's
states are 1-qubit tableaux in six bits (:func:`_run`); its tables' words,
:func:`gates.decompose_single_qubit`'s word and residual, and both paths'
frames come from one breadth-first search (:func:`_reach`) and one Pauli
read-off (:func:`_pauli`).  The generator-major views (:meth:`Tableau.images`,
:meth:`Tableau.from_images`, :func:`pretty`) read and set single row bits.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .pauli import PauliProduct, commutes

if TYPE_CHECKING:  # pragma: no cover
    from .circuit import Circuit
    from .gates import GateDef


class Tableau:
    """Images of the 2n Pauli generators under a unitary stabilizer circuit."""

    __slots__ = ("n", "_x", "_z", "_sign")

    def __init__(self, n: int, x: list[int], z: list[int], sign: int):
        self.n = n
        self._x = x
        self._z = z
        self._sign = sign

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_images(n: int, images: Sequence[PauliProduct]) -> "Tableau":
        """Build from the 2n images in interleaved order X_0, Z_0, ..."""
        if len(images) != 2 * n:
            raise ValueError(f"expected {2 * n} images, got {len(images)}")
        if any(img.n != n for img in images):
            raise ValueError("image qubit count mismatch")
        sign = sum(1 << g for g, img in enumerate(images) if img.sign < 0)
        x = [sum(((img.x >> q) & 1) << g for g, img in enumerate(images)) for q in range(n)]
        z = [sum(((img.z >> q) & 1) << g for g, img in enumerate(images)) for q in range(n)]
        return Tableau(n, x, z, sign)

    def copy(self) -> "Tableau":
        return Tableau(self.n, self._x.copy(), self._z.copy(), self._sign)

    # -- accessors ---------------------------------------------------------

    def images(self) -> list[PauliProduct]:
        """All 2n images, interleaved X_0, Z_0, X_1, Z_1, ..."""
        return [self._image(g) for g in range(2 * self.n)]

    def _image(self, g: int) -> PauliProduct:
        return PauliProduct(
            self.n,
            sum(((row >> g) & 1) << q for q, row in enumerate(self._x)),
            sum(((row >> g) & 1) << q for q, row in enumerate(self._z)),
            -1 if (self._sign >> g) & 1 else 1,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return (
            self.n == other.n
            and self._sign == other._sign
            and self._x == other._x
            and self._z == other._z
        )

    __hash__ = None  # type: ignore[assignment]

    # -- mutation (private, used by the builders below) ---------------------

    def _apply_layers(self, layers: Sequence[Sequence], inverse: bool = False) -> None:
        """Fold the layers' gates, each layer as :func:`circuit._circuit`'s five
        columns, onto the output side in time order, or with ``inverse`` their
        inverses from the last layer back, checking nothing: every caller has
        its columns checked first (:func:`_checked`, :func:`_gate_fault`).
        """
        xs, zs, sign = self._x, self._z, self._sign
        for g1, a1, g2, a2, b2 in reversed(layers) if inverse else layers:
            for gate, a in zip(g1, a1):
                sign ^= (gate.kernel_inv if inverse else gate.kernel)(xs, zs, a)
            for gate, a, b in zip(g2, a2, b2):
                sign ^= (gate.kernel_inv if inverse else gate.kernel)(xs, zs, a, b)
        self._sign = sign

    def relabel_wires(self, sigma: Sequence[int]) -> "Tableau":
        """Relabel image supports by sigma, leaving generator indices alone.

        This expresses "the same map with output wires renamed": generator j's
        image content moves from wire q to wire sigma[q].
        """
        if sorted(sigma) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {sigma}")
        x = [0] * self.n
        z = [0] * self.n
        for q, s in enumerate(sigma):
            x[s] = self._x[q]
            z[s] = self._z[q]
        return Tableau(self.n, x, z, self._sign)

    # -- checks -------------------------------------------------------------

    def _pauli_permutation(self) -> tuple[tuple[int, ...], PauliProduct] | None:
        """``(permutation, frame)`` when this is a Pauli times a relabelling.

        Such a map sends X_j to +-X_q and Z_j to +-Z_q with q =
        permutation[j], so row q holds the single bits 2j (X) and 2j + 1 (Z),
        and their signs make wire q's state as the walk keeps it, whose frame
        :func:`_pauli` reads off.  None when any row holds anything else.
        """
        n = self.n
        signs = f"{self._sign:0{2 * n}b}"[::-1]  # signs[g]: generator g's sign bit
        sigma, states = [0] * n, [_ONE] * n
        for q, (xq, zq) in enumerate(zip(self._x, self._z)):
            g = xq.bit_length() - 1  # odd for an empty row too
            if g & 1 or xq.bit_count() != 1 or zq.bit_length() != g + 2 or zq.bit_count() != 1:
                return None
            sigma[g >> 1] = q
            states[q] = _ONE | int(signs[g + 1] + signs[g], 2) << 4
        return tuple(sigma), _pauli(states)

    def is_symplectic(self) -> bool:
        """Pairwise (anti)commutation matches a valid generating set."""
        imgs = [self._image(g) for g in range(2 * self.n)]
        return all(  # only X_j and Z_j of the same j anticommute
            commutes(a, b) == (g // 2 != h // 2 or g == h)
            for g, a in enumerate(imgs) for h, b in enumerate(imgs)
        )


def identity(n: int) -> Tableau:
    """The trivial tableau: every generator maps to itself with sign +."""
    if n < 0:
        raise ValueError("qubit count must be non-negative")
    return Tableau(
        n, [1 << (2 * j) for j in range(n)], [1 << (2 * j + 1) for j in range(n)], 0
    )


def append_gate(t: Tableau, gate: "GateDef", qubits: Sequence[int]) -> Tableau:
    """New tableau with one more gate folded onto the output side, as a one-gate
    layer (:meth:`Tableau._apply_layers`); ``ValueError`` on a bad gate."""
    if fault := _gate_fault(t.n, gate, qubits := tuple(qubits)):
        raise ValueError(fault)
    half = [[gate], *([q] for q in qubits)]
    out = t.copy()
    out._apply_layers([half + [[], [], []] if gate.arity == 1 else [[], [], *half]])
    return out


def from_circuit(circuit: "Circuit") -> Tableau:
    """Fold every instruction of the circuit, in time order, over identity(n)."""
    t = identity(circuit.n)
    t._apply_layers(_checked(circuit))
    return t


def certify(a: "Circuit", b: "Circuit") -> tuple[tuple[int, ...], PauliProduct] | None:
    """How circuit a differs from circuit b, from one walk or one simulation.

    Returns ``(permutation, frame)`` when a equals b followed by a wire
    relabelling and then a Pauli product: the relabelling takes b's wire j
    to a's wire ``permutation[j]``, as :meth:`Tableau.relabel_wires` moves
    image supports, and the frame (sign +1) acts on a's wires.  With the
    identity permutation, a and b are equivalent up to the frame, and
    equivalent outright when the frame is the identity too.  Returns None
    when a and b differ in any other way, or in qubit count.  The per-wire
    walk (:func:`_local`) raises on a bad gate, a's first, before any
    tableau; a pair it cannot decide is simulated on one n-qubit tableau.
    """
    if a.n != b.n:
        return None
    try:
        return _local(a, b)
    except _Fallback:
        pass
    t = identity(a.n)  # the map a b^-1: b's inverse, then a
    t._apply_layers(_checked(b), inverse=True)
    t._apply_layers(_checked(a))
    return t._pauli_permutation()


# -- the per-wire walk; every table is read off the gates' own kernels -----

_ONE = 0b1001  # the identity: X -> +X, Z -> +Z


class _Fallback(Exception):
    """The walk cannot decide: unaligned layers, an entangling step or b's leftover layers."""


def _run(key: int, kernels: Iterable[Callable[..., int]]) -> int:
    """The state after the single-qubit kernels, in time order.  A state is a
    single-qubit Clifford up to phase, a 1-qubit tableau in six bits:
    x | z << 2 | sign << 4, bit 0 of each for generator X, bit 1 for Z."""
    for kernel in kernels:
        xs, zs = [key & 3], [key >> 2 & 3]
        flip = kernel(xs, zs, 0)
        key = xs[0] | zs[0] << 2 | (key >> 4 ^ flip) << 4
    return key


def _reach(gates: Sequence[GateDef], mask: int) -> dict[int, tuple[GateDef, ...]]:
    """The shortest word of the gates to each state they reach, breadth first
    in the order they are listed; ``mask`` 63 keeps the signs, 15 drops them
    and so keys each basis-change class."""
    words, queue = {_ONE: ()}, [_ONE]
    for key in queue:
        for gate in gates:
            if (nxt := _run(key, (gate.kernel,)) & mask) not in words:
                words[nxt] = words[key] + (gate,)
                queue.append(nxt)
    return words


@cache
def _words() -> dict[int, tuple[Callable[..., int], ...]]:
    """The 24 states, each with H and S kernels reaching it (breadth first)."""
    from .gates import builtin  # gates imports this module

    return {key: tuple(gate.kernel for gate in word)
            for key, word in _reach((builtin("H"), builtin("S")), 63).items()}


def _table(kernel: Callable[..., int], inverse: bool) -> tuple[int | None, ...]:
    """Each state -> ``kernel`` after it (a gate of a) or, with ``inverse``, before
    it (b's gate's inverse kernel, then the state's H/S word); None off the group."""
    words = _words()
    return tuple(None if k not in words else _run(_ONE, (kernel, *words[k])) if inverse
                 else _run(k, (kernel,)) for k in range(64))


class _Filled(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill: Callable) -> None:
        self.fill = fill

    def __missing__(self, key):
        return self.setdefault(key, self.fill(key))


# The walk's facts, each made at one point and keyed by the kernels it applies,
# which gates of one semantics share, so none keeps a gate alive: a's tables by
# gate.kernel, b's by gate.kernel_inv, and a dict of steps per (ga.kernel,
# gb.kernel_inv, flipped) by ``sp | sq << 6``; the sweep keeps its own step tables.
_TABLES = (_Filled(lambda k: _table(k, False)), _Filled(lambda k: _table(k, True)))
_STEPS = _Filled(lambda pair: _Filled(lambda key: _kernel_step(*pair, key & 63, key >> 6)))


def _kernel_step(kernel_a: Callable[..., int], kernel_b_inv: Callable[..., int],
                 flipped: bool, sp: int, sq: int):
    """The map ga (sp x sq) gb^-1 on a's wires (p, q), gb on (p, q) or,
    ``flipped``, on (q, p), on a 2-qubit tableau, from ga's kernel and gb's
    inverse kernel: the new states of wires p and q and whether the wires
    swapped, or None when it entangles them; the walk keeps it (``_STEPS``)."""
    words = _words()
    xs, zs = [0b0001, 0b0100], [0b0010, 0b1000]  # identity(2)'s rows
    sign = kernel_b_inv(xs, zs, *((1, 0) if flipped else (0, 1)))
    for wire, state in ((0, sp), (1, sq)):
        for kernel in words[state]:
            sign ^= kernel(xs, zs, wire)
    sign ^= kernel_a(xs, zs, 0, 1)
    for s in (0, 2):  # bit offset of the generators that land on wire 0
        if not (xs[0] | zs[0]) >> 2 - s & 3 and not (xs[1] | zs[1]) >> s & 3:
            return (*((xs[w] >> t & 3) | (zs[w] >> t & 3) << 2 | (sign >> t & 3) << 4
                      for w, t in ((0, s), (1, 2 - s))), s == 2)
    return None


def _fault(n: int, layers: Iterable[Sequence[Sequence]]) -> str | None:
    """What is wrong with the first bad layer: its first bad gate
    (:func:`_gate_fault`), else the first qubit it uses twice, as
    ``Circuit(...)`` words it; or None, in one pass over each layer's columns."""
    for g1, a1, g2, a2, b2 in layers:
        if g1:  # an entangler layer has no single-qubit column to zip
            for gate, a in zip(g1, a1):
                if gate.arity != 1 or not 0 <= a < n:
                    return _gate_fault(n, gate, (a,))
        if g2:
            for gate, a, b in zip(g2, a2, b2):
                if gate.arity != 2 or a == b or not (0 <= a < n and 0 <= b < n):
                    return _gate_fault(n, gate, (a, b))
        if len({*a1, *a2, *b2}) < len(a1) + 2 * len(a2):
            seen: set[int] = set()
            for q in chain(a1, *zip(a2, b2)):
                if q in seen:
                    return f"qubit {q} used twice in one layer"
                seen.add(q)
    return None


def _gate_fault(n: int, gate: GateDef, qubits: Sequence[int]) -> str | None:
    """What is wrong with one gate on these qubits (arity, a repeat, range), or None."""
    if len(qubits) != gate.arity:
        return f"{gate.name} expects {gate.arity} qubits, got {len(qubits)}"
    if len(set(qubits)) != len(qubits):
        return f"duplicate qubit in {gate.name} {tuple(qubits)}"
    return next((f"qubit {q} out of range for n={n}" for q in qubits if not 0 <= q < n), None)


def _checked(c: "Circuit") -> Sequence[list]:
    """c's columns when :func:`_fault` finds nothing wrong with them, else
    ``ValueError`` with the fault.  The verdict is kept on c as ``_fault``,
    so each circuit is checked at most once; :func:`circuit.parse`, which
    checks every gate as it reads it, keeps None at once."""
    if "_fault" not in (kept := c.__dict__):
        kept["_fault"] = _fault(c.n, c._columns)
    if kept["_fault"]:
        raise ValueError(kept["_fault"])
    return c._columns


def _segments(c: "Circuit", inverse: bool, states: list[int], wire: list[int]):
    """Multiply c's single-qubit gates into the states, qubit q's into ``wire[q]``,
    and yield each layer's two-qubit columns (gates, first and second qubits);
    ``ValueError``, before any gate, on columns :func:`_checked` rejects."""
    tables, last = _TABLES[inverse], None
    for g1, a1, g2, a2, b2 in _checked(c):
        if g1:  # an entangler layer has no single-qubit column to zip
            for gate, q in zip(g1, a1):
                if gate is not last:  # one lookup per run of one gate
                    last, table = gate, tables[gate.kernel_inv if inverse else gate.kernel]
                w = wire[q]
                states[w] = table[states[w]]
        if g2:
            yield g2, a2, b2


def _local(a: "Circuit", b: "Circuit") -> tuple[tuple[int, ...], PauliProduct] | None:
    """:func:`certify` for circuits of one size, an entangler layer at a time.

    Between entangler layers the map a b^-1 is one state per wire of a times
    the relabelling ``sigma`` (b's wire j is a's wire ``sigma[j]``): a gate of
    a multiplies its wire's state from the left, a gate of b from the right
    by its inverse.  Each entangler of a must meet one of b on the same wires
    and make a local map with their states, which may swap the wires; else
    :class:`_Fallback` is raised (``ValueError`` on a bad gate, a's first).
    Each layer's qubits must be distinct.  A layer aligns when b's pairs,
    relabelled, are a's in order and each side holds one gate: one loop
    walks it; other layers match pairs by dict."""
    n = a.n
    states, sigma = [_ONE] * n, list(range(n))
    relabel = sigma.__getitem__
    b_layers = _segments(b, True, states, sigma)
    for gates, ps, qs in _segments(a, False, states, list(range(n))):
        gb, bi, bj = next(b_layers, ((), (), ()))
        if (bi and relabel(bi[0]) == ps[0]  # a crossed layer mostly fails here, cheaply
                and list(map(relabel, bi)) == ps and list(map(relabel, bj)) == qs
                and gates.count(gates[0]) == len(gates) == gb.count(gb[0])):
            steps = _STEPS[gates[0].kernel, gb[0].kernel_inv, False]
            for p, q, i, j in zip(ps, qs, bi, bj):
                if not (done := steps[states[p] | states[q] << 6]):
                    raise _Fallback
                states[p], states[q], swapped = done
                if swapped:
                    sigma[i], sigma[j] = q, p
            continue
        other = {(sigma[i], sigma[j]): (gate, i, j) for gate, i, j in zip(gb, bi, bj)}
        if len(other) != len(gates):
            raise _Fallback
        for gate, p, q in zip(gates, ps, qs):
            if flipped := (match := other.get((p, q))) is None:
                match = other.get((q, p))
            done = match and _STEPS[gate.kernel, match[0].kernel_inv, flipped][
                states[p] | states[q] << 6]
            if not done:
                raise _Fallback
            states[p], states[q], swapped = done
            if swapped:
                _, i, j = match
                sigma[i], sigma[j] = sigma[j], sigma[i]
    if next(b_layers, None) is not None:  # b has an entangler layer left
        raise _Fallback
    frame = _pauli(states)
    return None if frame is None else (tuple(sigma), frame)


_DIGITS = tuple(bytes(48 + (k >> bit & 1) if k & 15 == _ONE else 45 for k in range(256))
                for bit in (5, 4))  # each state's frame digit, X then Z; "-" off the Paulis


def _pauli(states: Sequence[int]) -> PauliProduct | None:
    """The Pauli product with wire q in ``states[q]``, or None when a wire
    holds more; it flips X's sign (bit 4) where it has a Z, Z's where an X."""
    fx, fz = map(bytes(states[::-1]).translate, _DIGITS)
    return None if b"-" in fx else PauliProduct(len(states), int(b"0" + fx, 2), int(b"0" + fz, 2))


def describe_difference(t1: Tableau, t2: Tableau, name1: str, name2: str) -> str:
    """One line naming the first generator whose images differ, with both images.

    Letters are compared first: the lowest generator whose images differ in
    any letter is named.  Only when every letter agrees is the lowest
    generator with a different sign named, and the line says that only
    signs differ, the case a Pauli frame fixes.  Images are printed in the
    Pauli product syntax; ``name1`` and ``name2`` label the two sides.
    """
    if t1.n != t2.n:
        return f"{name1} has {t1.n} qubits but {name2} has {t2.n}"
    letters = 0
    for x1, x2, z1, z2 in zip(t1._x, t2._x, t1._z, t2._z):
        letters |= (x1 ^ x2) | (z1 ^ z2)
    diff = letters or (t1._sign ^ t2._sign)
    if not diff:
        raise ValueError("the tableaux are equal")
    g = (diff & -diff).bit_length() - 1
    line = (f"generator {'XZ'[g & 1]}{g >> 1} maps to {t1._image(g)} in {name1} "
            f"but to {t2._image(g)} in {name2}")
    if not letters:
        line += "; only signs differ, which a Pauli frame fixes"
    return line


def pretty(t: Tableau) -> str:
    """Qubit-major table with a sign row; ``_`` marks identity entries.

    Layout (stable, documented in the README)::

              X0  Z0  X1  Z1
        +/-    +   +   +   +
          0    X   Z   _   Z
          1    X   _   X   Z
    """
    n = t.n
    if n == 0:
        return "(empty tableau)"
    label_w = max(3, len(str(n - 1)))
    cell_w = len(f"Z{n - 1}")
    codes = "_ZXY"

    def line(label: str, cells: list[str]) -> str:
        return label.rjust(label_w) + "  " + "  ".join(c.rjust(cell_w) for c in cells)

    header = [f"{p}{j}" for j in range(n) for p in ("X", "Z")]
    signs = ["-" if (t._sign >> g) & 1 else "+" for g in range(2 * n)]
    lines = [line("", header), line("+/-", signs)]
    for q, (xq, zq) in enumerate(zip(t._x, t._z)):
        cells = [codes[2 * (xq >> g & 1) + (zq >> g & 1)] for g in range(2 * n)]
        lines.append(line(str(q), cells))
    return "\n".join(lines)
