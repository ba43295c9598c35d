"""Layered circuit representation and the text dialect parser/emitter.

The dialect is a strict subset of the stim circuit text format: one
instruction per line, ``TICK`` separates layers, ``QUBIT_COORDS`` lines and
``#`` comments are accepted and ignored, and two-qubit instructions may list
several pairs on one line (``CX 0 1 2 3``).  ``ECR`` is a dialect extension.
Measurements, resets, detectors and noise are rejected: circuits here are
unitary.  Qubit count is 1 + the largest index used by an instruction, and a
target longer than Python converts from text (4,300 digits) is an error.

The public :class:`Instruction` and :class:`Circuit` constructors check
field types, arity, repeats, range and layer disjointness.  The parser reads
a layer at a time.  A layer of ``_BULK_LINES`` or more lines as :func:`emit`
writes them, all of one arity, costs one regular-expression match, one split
and one ``int`` map per target column for the whole layer.  Any other layer
is read line by line: a canonical line costs a partition, a gate-table
lookup and an ``int`` per target, and any other line a split.  The parser
and the compiler's stages, which build only from valid parts, skip the
constructors' checks (:func:`_instruction`, :func:`_layer`, :func:`_circuit`);
the verification tableau still checks every gate's qubits as it applies it.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from operator import attrgetter, index
from typing import Iterable, Iterator

from .gates import _REGISTRY, ALIASES, GateDef, builtin
from .pauli import _Record


class ParseError(ValueError):
    """Input text is not in the circuit dialect."""


#: Names accepted by the parser (all stim names, except the ECR extension).
DIALECT_GATES = tuple(_REGISTRY)

#: Every name the parser accepts, aliases included, to its gate.
_GATES = {name: builtin(name) for name in (*DIALECT_GATES, *ALIASES)}


class Instruction(_Record):
    """One gate application; qubit order encodes roles for asymmetric gates."""

    __slots__ = ("gate", "qubits")
    gate: GateDef
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.gate, GateDef):
            raise TypeError(f"Instruction.gate must be a GateDef, got {self.gate!r}")
        object.__setattr__(self, "qubits", tuple(map(_index, self.qubits)))
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
        object.__setattr__(self, "n", _index(self.n))
        if self.n < 0:
            raise ValueError("qubit count must be non-negative")
        norm = []
        for layer in self.layers:
            if not layer:
                continue
            used: set[int] = set()
            for inst in layer:
                if not isinstance(inst, Instruction):
                    raise TypeError(f"Circuit.layers must hold Instructions, got {inst!r}")
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


def _index(value: object) -> int:
    """An int from an integer value that is not a bool: ``TypeError`` else."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return index(value)


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


def _layer(parts: Iterable[tuple[GateDef, tuple[int, ...]]]) -> list[Instruction]:
    """Instructions from (gate, qubits) parts already known to be valid:
    :func:`_instruction` inlined, for one call per layer."""
    layer = []
    for gate, qubits in parts:
        inst = _new(Instruction)
        _set_gate(inst, gate)
        _set_qubits(inst, qubits)
        layer.append(inst)
    return layer


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
    be ASCII, and qubit targets are ASCII decimal digits.  The text is read a
    layer at a time, a layer being the lines between whole ``TICK`` lines: a
    layer of at least ``_BULK_LINES`` canonical lines of one arity (``NAME q``
    or ``NAME a b``, single spaces) that reuses no qubit is read by
    :func:`_read_layer`, and the runs of layers between such layers line by
    line by :func:`_read_lines`, with the same result or error.
    """
    layers: list[list[Instruction]] = []
    useds: list[set[int]] = []
    tick = "\nTICK\n"
    chunks = text.split(tick)
    start = pos = 0  # text offsets: of the layers not yet read, of this layer
    lineno = 1  # the line at start
    for chunk in chunks:
        following = pos + len(chunk) + len(tick)
        if (len(chunk) >= _BULK_CHARS and chunk.count("\n") + 1 >= _BULK_LINES
                and (read := _read_layer(chunk))):
            if start < pos:
                _read_lines(text[start:pos - len(tick)], lineno, layers, useds)
            layers.append(read[0])
            useds.append(read[1])
            lineno += text.count("\n", start, following)
            start = following
        pos = following
    if start <= len(text):
        _read_lines(text[start:], lineno, layers, useds)
    return _circuit(1 + max(map(max, filter(None, useds)), default=-1), layers)


#: Fewest lines in a layer that :func:`parse` reads in bulk.  On layers of
#: 2 to 600 canonical lines on distinct qubits (Python 3.11 on a shared
#: 2-core Linux host), the bulk read took 1.7-2.1x the per-line loop's time
#: at 2 lines, 1.2-1.3x at 8, broke even at 32 lines of ``NAME q`` (16-24 of
#: ``NAME a b``) and took 0.8-0.9x from 48 lines on.
_BULK_LINES = 32
_BULK_CHARS = 4 * _BULK_LINES - 1  # a canonical line takes 4 characters or more

#: Per arity: the pattern of a layer of canonical lines (compiled on first
#: use, not at import) and the gate names.
_CANONICAL = {
    arity: (rf"{line}(?:\n{line})*\n?",
            frozenset(name for name, gate in _GATES.items() if gate.arity == arity))
    for arity, line in ((1, "[A-Z_]+ [0-9]+"), (2, "[A-Z_]+ [0-9]+ [0-9]+"))
}


def _read_layer(chunk: str) -> tuple[list[Instruction], set[int]] | None:
    """A layer of canonical lines of one arity and its qubits, validated by
    one match, cut by one split and converted by one ``int`` map per target
    column; None for any other layer, which :func:`_read_lines` then reads."""
    for arity, (pattern, names_of_arity) in _CANONICAL.items():
        if re.fullmatch(pattern, chunk):
            break
    else:
        return None
    tokens = chunk.split()
    names = tokens[::arity + 1]
    if not names_of_arity.issuperset(names):
        return None
    try:
        columns = [[*map(int, tokens[k::arity + 1])] for k in range(1, arity + 1)]
    except ValueError:  # past sys.get_int_max_str_digits()
        return None
    used = set(chain.from_iterable(columns))
    if len(used) != arity * len(names):  # a qubit reused, maybe within a pair
        return None
    return _layer(zip(map(_GATES.__getitem__, names), zip(*columns))), used


def _read_lines(text: str, lineno: int, layers: list, useds: list) -> None:
    """Append the layers of ``text``, whose first line is line ``lineno``,
    reading line by line.  In ASCII text a canonical line (``NAME q``,
    ``NAME a b`` or ``TICK``) that reuses no qubit is read at once; every
    other line (comments, tabs, ``\\r``, extra spaces, several pairs,
    ``QUBIT_COORDS``, errors, targets ``int`` refuses) takes the general
    path."""
    ascii_text = text.isascii()
    layers.append(layer := [])
    useds.append(used := set())
    for lineno, raw in enumerate(text.split("\n"), start=lineno):
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
        if len(qs) % gate.arity:
            raise ParseError(f"line {lineno}: odd number of targets for {gate.name}")
        for qubits in zip(*[iter(qs)] * gate.arity):
            if qubits[0] in qubits[1:]:
                raise ParseError(f"line {lineno}: repeated qubit within a pair")
            for q in qubits:
                if q in used:
                    raise ParseError(f"line {lineno}: qubit {q} reused within a layer")
                used.add(q)
            layer.append(_instruction(gate, qubits))


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
