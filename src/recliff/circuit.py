"""Layered circuit representation and the text dialect parser/emitter.

The dialect is a strict subset of the stim circuit text format: one
instruction per line, ``TICK`` separates layers, ``QUBIT_COORDS`` lines and
``#`` comments are accepted and ignored, and two-qubit instructions may list
several pairs on one line (``CX 0 1 2 3``).  ``ECR`` is a dialect extension.
Measurements, resets, detectors and noise are rejected: circuits here are
unitary.  Qubit count is 1 + the largest index used by an instruction, and a
target longer than Python converts from text (4,300 digits) is an error.

The public :class:`Instruction` and :class:`Circuit` constructors check
arity, repeats, range and layer disjointness.  The parser checks each line
once: a line as :func:`emit` writes it costs a partition, a gate-table
lookup and an ``int`` per target, and any other line a split.  The parser
and the compiler's stages, which build only from valid parts, skip the
constructors' checks (:func:`_instruction`, :func:`_circuit`); the
verification tableau still checks every gate's qubits as it applies it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator

from .gates import ALIASES, GateDef, builtin
from .pauli import _Record


class ParseError(ValueError):
    """Input text is not in the circuit dialect."""


#: Names accepted by the parser (all stim names, except the ECR extension).
DIALECT_GATES = (
    "I", "X", "Y", "Z", "H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG",
    "H_XY", "H_YZ", "C_XYZ", "C_ZYX",
    "CX", "CZ", "SWAP", "ISWAP", "SQRT_XX", "CXSWAP", "CZSWAP", "ECR",
)

#: Every name the parser accepts, aliases included, to its gate.
_GATES = {name: builtin(name) for name in (*DIALECT_GATES, *ALIASES)}


class Instruction(_Record):
    """One gate application; qubit order encodes roles for asymmetric gates."""

    __slots__ = ("gate", "qubits")
    gate: GateDef
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.qubits) != self.gate.arity:
            raise ValueError(
                f"{self.gate.name} expects {self.gate.arity} qubits, got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.gate.name} {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.gate.name} {self.qubits}")

    def __str__(self) -> str:
        return " ".join([self.gate.name, *map(str, self.qubits)])


class Circuit(_Record):
    """A qubit count plus layers of instructions on disjoint qubits.

    Layers are normalised at construction: instructions sort by qubits and
    empty layers are dropped, so structural equality is well defined.
    """

    n: int
    layers: tuple[tuple[Instruction, ...], ...]

    def __post_init__(self) -> None:
        norm = []
        for layer in self.layers:
            if not layer:
                continue
            used: set[int] = set()
            for inst in layer:
                for q in inst.qubits:
                    if q >= self.n:
                        raise ValueError(f"qubit {q} out of range for n={self.n}")
                    if q in used:
                        raise ValueError(f"qubit {q} used twice in one layer")
                    used.add(q)
            norm.append(tuple(sorted(layer, key=_by_qubits)))
        object.__setattr__(self, "layers", tuple(norm))

    def instructions(self) -> Iterator[Instruction]:
        for layer in self.layers:
            yield from layer

    def wire_gates(self, qubit: int) -> list[Instruction]:
        """The timeline of instructions touching one qubit."""
        return [inst for inst in self.instructions() if qubit in inst.qubits]

    def is_empty(self) -> bool:
        return not self.layers


_by_qubits = attrgetter("qubits")
_gate_name = attrgetter("gate.name")


_new = object.__new__
_set_gate = Instruction.gate.__set__  # slot descriptors, past the frozen __setattr__
_set_qubits = Instruction.qubits.__set__


def _instruction(gate: GateDef, qubits: tuple[int, ...]) -> Instruction:
    """An instruction from parts already known to be valid: no checks."""
    inst = _new(Instruction)
    _set_gate(inst, gate)
    _set_qubits(inst, qubits)
    return inst


def _circuit(n: int, layers: Iterable[Iterable[Instruction]]) -> Circuit:
    """A circuit from layers already known to be valid: sorts each layer by
    qubits and drops empty ones, as :class:`Circuit` does, but checks nothing."""
    c = object.__new__(Circuit)
    c.__dict__.update(n=n, layers=tuple(
        tuple(sorted(layer, key=_by_qubits)) for layer in layers if layer))
    return c


def parse(text: str) -> Circuit:
    """Parse dialect text into a circuit.

    Lines are split at ``"\\n"`` only.  Outside ``#`` comments the text must
    be ASCII, and qubit targets are ASCII decimal digits.  In ASCII text a
    canonical line (``NAME q``, ``NAME a b`` or ``TICK``, single spaces) that
    reuses no qubit is read at once; every other line (comments, tabs, ``\\r``,
    extra spaces, several pairs, ``QUBIT_COORDS``, errors, targets ``int``
    refuses) takes the general path, with the same result or error.
    """
    ascii_text = text.isascii()
    layer: list[Instruction] = []
    layers = [layer]
    used: set[int] = set()
    useds = [used]
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if ascii_text:  # the canonical lines emit writes: NAME q, NAME a b, TICK
            name, _, rest = raw.partition(" ")
            gate = _GATES.get(name)
            try:
                if gate is None:
                    if raw == "TICK":
                        layers.append(layer := [])
                        useds.append(used := set())
                        continue
                elif gate.arity == 1:
                    if rest.isdigit() and (a := int(rest)) not in used:
                        used.add(a)
                        inst = _new(Instruction)  # _instruction inlined: the commonest line
                        _set_gate(inst, gate)
                        _set_qubits(inst, (a,))
                        layer.append(inst)
                        continue
                else:
                    a, _, b = rest.partition(" ")
                    if (a.isdigit() and b.isdigit() and (a := int(a)) != (b := int(b))
                            and a not in used and b not in used):
                        used.add(a)
                        used.add(b)
                        layer.append(_instruction(gate, (a, b)))
                        continue
            except ValueError:  # past sys.get_int_max_str_digits(): said below
                pass
        if "#" in raw:
            raw = raw.partition("#")[0]
        if not ascii_text and not raw.isascii():
            raise ParseError(f"line {lineno}: non-ASCII character outside a comment")
        tokens = raw.split()
        if not tokens:
            continue
        gate = _GATES.get(tokens[0])
        if gate is None:
            name = tokens[0]
            if name == "TICK":
                if len(tokens) > 1:
                    raise ParseError(f"line {lineno}: TICK takes no arguments")
                layers.append(layer := [])
                useds.append(used := set())
                continue
            if name.partition("(")[0] == "QUBIT_COORDS":
                continue
            if "(" in name:
                raise ParseError(f"line {lineno}: parametric gate {name!r} not supported")
            raise ParseError(f"line {lineno}: unknown or unsupported gate {name!r}")
        del tokens[0]
        # The line is ASCII, so isdigit() accepts exactly [0-9]+.
        if not "".join(tokens).isdigit():
            if tokens:
                raise ParseError(f"line {lineno}: malformed qubit target in {raw.strip()!r}")
            raise ParseError(f"line {lineno}: {gate.name} needs at least one target")
        try:
            qs = [int(tokens[0])] if len(tokens) == 1 else [*map(int, tokens)]
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(f"line {lineno}: qubit target of "
                             f"{max(map(len, tokens))} digits is too long") from None
        if gate.arity == 1:
            for q in qs:
                if q in used:
                    raise ParseError(f"line {lineno}: qubit {q} reused within a layer")
                used.add(q)
                layer.append(_instruction(gate, (q,)))
        elif len(qs) & 1:
            raise ParseError(f"line {lineno}: odd number of targets for {gate.name}")
        else:
            for pair in zip(qs[::2], qs[1::2]):
                if pair[0] == pair[1]:
                    raise ParseError(f"line {lineno}: repeated qubit within a pair")
                for q in pair:
                    if q in used:
                        raise ParseError(f"line {lineno}: qubit {q} reused within a layer")
                    used.add(q)
                layer.append(_instruction(gate, pair))
    return _circuit(1 + max(map(max, filter(None, useds)), default=-1), layers)


def emit(c: Circuit) -> str:
    """Emit dialect text; round-trips through :func:`parse` layer-exactly."""
    if c.is_empty():
        return ""
    return "\nTICK\n".join([
        "\n".join([f"{i.gate.name} {i.qubits[0]}" if i.gate.arity == 1
                   else f"{i.gate.name} {i.qubits[0]} {i.qubits[1]}" for i in layer])
        for layer in c.layers
    ]) + "\n"


def gate_counts(c: Circuit) -> dict[str, int]:
    """Exact tally of instructions by gate name, in first-seen order."""
    return dict(Counter(map(_gate_name, chain.from_iterable(c.layers))))


def depth(c: Circuit) -> int:
    return len(c.layers)


def two_qubit_count(c: Circuit) -> int:
    return sum(1 for inst in c.instructions() if inst.gate.arity == 2)


def expand_ecr(c: Circuit) -> Circuit:
    """Rewrite each ECR as its S/sqrt(X), CX, X circuit identity.

    A layer containing ECRs becomes three layers; any other instructions in
    that layer ride in the middle layer, so disjointness is preserved.
    """
    s, sx, cx, x = builtin("S"), builtin("SQRT_X"), builtin("CX"), builtin("X")
    out: list[tuple[Instruction, ...]] = []
    for layer in c.layers:
        ecrs = [inst for inst in layer if inst.gate.name == "ECR"]
        if not ecrs:
            out.append(layer)
            continue
        rest = [inst for inst in layer if inst.gate.name != "ECR"]
        pre = [_instruction(s, (i.qubits[0],)) for i in ecrs]
        pre += [_instruction(sx, (i.qubits[1],)) for i in ecrs]
        mid = [_instruction(cx, i.qubits) for i in ecrs] + rest
        post = [_instruction(x, (i.qubits[0],)) for i in ecrs]
        out.extend([pre, mid, post])
    return _circuit(c.n, out)
