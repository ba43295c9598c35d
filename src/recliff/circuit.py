"""Layered circuit representation and the text dialect parser/emitter.

The dialect is a strict subset of the stim circuit text format: one
instruction per line, ``TICK`` separates layers, ``QUBIT_COORDS`` lines and
``#`` comments are accepted and ignored, and two-qubit instructions may list
several pairs on one line (``CX 0 1 2 3``).  ``ECR`` is a dialect extension.
Measurements, resets, detectors and noise are rejected: circuits here are
unitary.  Qubit count is 1 + the largest index used by an instruction, and a
target longer than Python converts from text (4,300 digits) is an error.

A circuit stores each layer as five columns, as Stim stores a gate with a
flat list of targets: the single-qubit gates and an ``int`` column of their
qubits, then the two-qubit gates and ``int`` columns of their first and
second qubits, each half in order of first qubits (:func:`_circuit`).  A
half that holds one gate, as a surface-code layer does, is sorted by its
qubit columns alone, in about half the time of sorting its rows at d = 25,
and a bulk-read one writes its gate column as one repeated gate.
:attr:`Circuit.layers` builds its :class:`Instruction` tuples on first read;
the parser, the compiler, the tableau, the reports and :func:`emit` read and
write only the columns.

The public :class:`Instruction` and :class:`Circuit` constructors check
field types, arity, repeats, range and layer disjointness.

Qubit indices cross the text boundary through one table, ``str(q)`` for
each q below some n and the dict back (:func:`_qubit_text`): on Python 3.11
a dict lookup costs about a third of an ``int`` of the same digits, and
indexing the tuple about half of formatting an ``int``.  The parser reads a
layer at a time.  A layer of ``_BULK_LINES`` or more ASCII lines of one
arity, each a gate name, one space and its targets, costs one split, a count
of line starts per gate name and one table map per target column for the
whole layer (an ``int`` map for a column with a target the table lacks).
Any other layer is read line by line: a canonical line costs a partition, a
gate-table lookup, a dict lookup per target (an ``int`` for one the table
lacks) and an append per column, any other line a split and an ``int`` per
target.  :func:`emit` indexes the table per target, and
``compile --metadata`` writes its permutation from it.  The parser and the
compiler's stages skip the constructors' checks (:func:`_circuit`); the
tableau checks each compiled circuit once (:func:`tableau._checked`).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress
from operator import attrgetter, index, itemgetter
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
    empty layers are dropped, so structural equality is well defined.  Each
    layer is stored as five columns (:func:`_circuit`).
    """

    n: int
    layers: tuple[tuple[Instruction, ...], ...]

    def __post_init__(self) -> None:
        n = _index(self.n)
        if n < 0:
            raise ValueError("qubit count must be non-negative")
        layers = []
        for layer in self.layers:
            used: set[int] = set()
            layers.append(columns := [[], [], [], [], []])
            for inst in layer:
                if not isinstance(inst, Instruction):
                    raise TypeError(f"Circuit.layers must hold Instructions, got {inst!r}")
                gates, *targets = columns[:2] if len(inst.qubits) == 1 else columns[2:]
                gates.append(inst.gate)
                for q, column in zip(inst.qubits, targets):
                    if q >= n:
                        raise ValueError(f"qubit {q} out of range for n={n}")
                    if q in used:
                        raise ValueError(f"qubit {q} used twice in one layer")
                    used.add(q)
                    column.append(q)
        object.__setattr__(self, "__dict__", vars(_circuit(n, layers)))

    def __getattr__(self, name: str) -> tuple:
        """``layers``, built from the columns on first read and kept: where a
        parsed or compiled circuit makes its instructions."""
        if name != "layers":
            raise AttributeError(f"'Circuit' object has no attribute {name!r}")
        self.__dict__["layers"] = layers = tuple(
            tuple(sorted([*map(_instruction, g1, zip(a1)), *map(_instruction, g2, zip(a2, b2))],
                         key=_by_qubits)) for g1, a1, g2, a2, b2 in self._columns)
        return layers

    def instructions(self) -> Iterator[Instruction]:
        for layer in self.layers:
            yield from layer

    def wire_gates(self, qubit: int) -> list[Instruction]:
        """The timeline of instructions touching one qubit."""
        return [inst for inst in self.instructions() if qubit in inst.qubits]

    def is_empty(self) -> bool:
        return not self._columns


def _index(value: object) -> int:
    """An int from an integer value that is not a bool: ``TypeError`` else."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return index(value)


_by_qubits = attrgetter("qubits")
_first, _second = itemgetter(0), itemgetter(1)


_new = object.__new__
_set_gate = Instruction.gate.__set__  # slot descriptors, past the frozen __setattr__
_set_qubits = Instruction.qubits.__set__


def _instruction(gate: GateDef, qubits: tuple[int, ...]) -> Instruction:
    """An instruction from parts already known to be valid: no checks."""
    inst = _new(Instruction)
    _set_gate(inst, gate)
    _set_qubits(inst, qubits)
    return inst


def _circuit(n: int, layers: Iterable[list[list]]) -> Circuit:
    """A circuit from layers of parts known to be valid, each as five lists:
    the single-qubit gates and their qubits, the two-qubit gates and their
    first and second qubits.  Drops empty layers and sorts each half of a
    layer in place by its first-qubit column, which sets the order on
    disjoint qubits, when that column is out of order; checks nothing.  A
    half of one gate sorts its qubit columns alone: the sorted first column,
    and the second gathered through a dict when the first holds no repeat.
    A surface-code round's (d = 25) sorts take about half the time of
    sorting (gate, qubits) rows, which other halves still do."""
    kept = [layer for layer in layers if layer[0] or layer[2]]
    for layer in kept:
        g1, a1, g2, a2, b2 = layer
        if len(a1) > 1 and a1 != (s := sorted(a1)):
            if g1.count(g1[0]) == len(g1):
                layer[1] = s
            else:
                layer[:2] = map(list, zip(*sorted(zip(g1, a1), key=_second)))
        if len(a2) > 1 and a2 != (s := sorted(a2)):
            if g2.count(g2[0]) == len(g2) and len(second := dict(zip(a2, b2))) == len(a2):
                layer[3:] = s, [*map(second.__getitem__, s)]
            else:
                layer[2:] = map(list, zip(*sorted(zip(g2, a2, b2), key=_second)))
    c = _new(Circuit)
    c.__dict__.update(n=n, _columns=tuple(kept))
    return c


def _widened(c: Circuit, n: int) -> Circuit:
    """c, whose gates are on its own wires, on n >= c.n wires: a copy that shares
    c's columns and any verdict on its gates (:func:`tableau._checked`)."""
    wide = _new(Circuit)
    wide.__dict__.update(c.__dict__, n=n)
    return wide


def _gates(c: Circuit) -> Iterator[GateDef]:
    """Every gate of c in time order, each layer's in order of qubits."""
    return chain.from_iterable(
        [g for _, g in sorted(zip(a1 + a2, g1 + g2), key=_first)] if g1 and g2 else g1 or g2
        for g1, a1, g2, a2, _ in c._columns)


def parse(text: str) -> Circuit:
    """Parse dialect text into a circuit.

    Lines are split at ``"\\n"`` only.  Outside ``#`` comments the text must
    be ASCII, and qubit targets are ASCII decimal digits.  The text is read a
    layer at a time, a layer being the lines between whole ``TICK`` lines: a
    layer of at least ``_BULK_LINES`` lines of one arity, each starting with a
    gate name and one space (``NAME q`` or ``NAME a b``), that reuses no qubit
    is read by :func:`_read_layer`, and the runs of layers between such layers
    line by line by :func:`_read_lines`, with the same result or error.
    """
    layers: list[list] = []
    useds: list[set[int]] = []
    tick = "\nTICK\n"
    chunks = text.split(tick)
    start = pos = 0  # text offsets: of the layers not yet read, of this layer
    lineno = 1  # the line at start
    for chunk in chunks:
        following = pos + len(chunk) + len(tick)
        if len(chunk) >= _BULK_CHARS and (read := _read_layer(chunk)):
            if start < pos:
                _read_lines(text[start:pos - len(tick)], lineno, layers, useds)
            layers.append(read[0])
            useds.append(read[1])
            lineno += text.count("\n", start, following)
            start = following
        pos = following
    if start <= len(text):
        _read_lines(text[start:], lineno, layers, useds)
    n = 1 + max(map(max, filter(None, useds)), default=-1)
    _qubit_text(n, sum(map(len, useds)))
    c = _circuit(n, layers)
    c.__dict__["_fault"] = None  # every gate was checked as read: tableau._checked skips it
    return c


#: The decimal text of the qubits below some n, both ways: ``str(q)`` for each
#: q, and the dict back to q.  Empty at import; rebound whole, never changed in
#: place, by :func:`_qubit_text` alone, so a reader sees one whole table or
#: another.  Two threads growing it at once may leave the smaller table bound;
#: each uses the one it made, and a later parse or emit grows it again.
_QUBIT_TEXT: tuple[tuple[str, ...], dict[str, int]] = ((), {})


def _qubit_text(n: int, targets: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The table, first rebound to cover the qubits below n if it does not and
    a circuit on n qubits holds ``targets`` >= n qubit targets, so that making
    it costs no more than the reads or writes it saves: ``H 1000000`` never
    grows it.  :func:`parse` calls this at its end, :func:`emit` at its start."""
    global _QUBIT_TEXT
    table = _QUBIT_TEXT
    if len(table[0]) < n <= targets:
        text = tuple(map(str, range(n)))
        table = _QUBIT_TEXT = text, dict(zip(text, range(n)))
    return table


def _decimals(qubits: Iterable[int], n: int) -> Iterator[str]:
    """``str(q)`` for each of the qubits, all below n: from the table if it covers n."""
    text = _QUBIT_TEXT[0]
    return map(text.__getitem__ if len(text) >= n else str, qubits)


#: Fewest lines in a layer that :func:`parse` reads in bulk.  On Python 3.11
#: (a shared 2-core Linux host) the bulk read alone took 2.3-3.7x the per-line
#: loop's time at 2 lines and broke even at 16 lines of one gate name, 32 of
#: ``NAME q`` with three names; whole parses of random 8-24 qubit texts took
#: 1.11-1.25x as long with 16 and 0.99-1.05x with 24 as with 32.
_BULK_LINES = 32
_BULK_CHARS = 4 * _BULK_LINES - 1  # a canonical line takes 4 characters or more

#: Per arity, the names of its gates, aliases included, to the gate.
_OF_ARITY = {k: {name: gate for name, gate in _GATES.items() if gate.arity == k} for k in (1, 2)}


def _read_layer(chunk: str) -> tuple[list, set[int]] | None:
    """A layer of ``_BULK_LINES`` or more ASCII lines of one arity as five
    columns, and its qubits, from one split, a count of line starts per gate
    name and a table map per target column (``int`` if the table lacks one);
    else None.  Names are not digits and targets are, so if every line starts
    with a name and a space and the tokens number arity + 1 per line, each
    line holds one name and its targets, as :func:`_read_lines` reads them."""
    lines = chunk.count("\n") + (not chunk.endswith("\n"))
    if lines < _BULK_LINES or not chunk.isascii():
        return None
    step, extra = divmod(len(tokens := chunk.split()), lines)
    if extra or (gates := _OF_ARITY.get(step - 1)) is None:
        return None
    one = chunk.count(f"\n{tokens[0]} ") == lines - 1  # every line starts as the first
    names = {tokens[0]} if one else {*tokens[::step]}
    if not (names <= gates.keys() and chunk.startswith(tokens[0] + " ") and (
            one or sum(chunk.count(f"\n{name} ") for name in names) == lines - 1)):
        return None
    targets = [tokens[k::step] for k in range(1, step)]
    try:
        try:
            columns = [[*map(_QUBIT_TEXT[1].__getitem__, column)] for column in targets]
        except KeyError:  # a leading zero, past the table, or not digits (int reads 1_0, -1)
            if not "".join(map("".join, targets)).isdigit():
                return None
            columns = [[*map(int, column)] for column in targets]
    except ValueError:  # past sys.get_int_max_str_digits()
        return None
    used = set(chain.from_iterable(columns))
    if len(used) != (step - 1) * lines:  # a qubit reused, maybe within a pair
        return None
    half = [[gates[tokens[0]]] * lines if one else [*map(gates.__getitem__, tokens[::step])],
            *columns]
    return (half + [[], [], []] if step == 2 else [[], [], *half]), used


def _read_lines(text: str, lineno: int, layers: list, useds: list) -> None:
    """Append the layers of ``text``, whose first line is line ``lineno``,
    reading line by line into five column lists per layer.  In ASCII text a
    canonical line (``NAME q``, ``NAME a b`` or ``TICK``) that reuses no
    qubit is read at once, each target by a lookup in the qubit text table or,
    for one the table lacks, by ``int``; every other line (comments, tabs,
    ``\\r``, extra spaces, several pairs, ``QUBIT_COORDS``, errors, targets
    ``int`` refuses) takes the general path."""
    ascii_text = text.isascii()
    number = _QUBIT_TEXT[1].get  # a target's qubit from the table, or None
    layers.append(layer := [[], [], [], [], []])
    useds.append(used := set())
    for lineno, raw in enumerate(text.split("\n"), start=lineno):
        if ascii_text:  # the canonical lines emit writes: NAME q, NAME a b, TICK
            name, _, rest = raw.partition(" ")
            gate = _GATES.get(name)
            try:  # a target the table lacks (a leading zero, past it) is read by int
                if gate is None:
                    if raw == "TICK":
                        layers.append(layer := [[], [], [], [], []])
                        useds.append(used := set())
                        continue
                elif gate.arity == 1:
                    if (a := number(rest)) is None and rest.isdigit():
                        a = int(rest)
                    if a is not None and a not in used:
                        used.add(a)
                        layer[0].append(gate)
                        layer[1].append(a)
                        continue
                else:
                    a, _, b = rest.partition(" ")
                    if (p := number(a)) is None and a.isdigit():
                        p = int(a)
                    if (q := number(b)) is None and b.isdigit():
                        q = int(b)
                    if (p is not None and q is not None and p != q
                            and p not in used and q not in used):
                        used.add(p)
                        used.add(q)
                        layer[2].append(gate)
                        layer[3].append(p)
                        layer[4].append(q)
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
                layers.append(layer := [[], [], [], [], []])
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
        gates, *targets = layer[:2] if gate.arity == 1 else layer[2:]
        for qubits in zip(*[iter(qs)] * gate.arity):
            if qubits[0] in qubits[1:]:
                raise ParseError(f"line {lineno}: repeated qubit within a pair")
            for q, column in zip(qubits, targets):
                if q in used:
                    raise ParseError(f"line {lineno}: qubit {q} reused within a layer")
                used.add(q)
                column.append(q)
            gates.append(gate)


def emit(c: Circuit) -> str:
    """Emit dialect text; round-trips through :func:`parse` layer-exactly."""
    if c.is_empty():
        return ""
    text = _qubit_text(c.n, sum(len(a1) + 2 * len(a2) for _, a1, _, a2, _ in c._columns))[0]
    if len(text) < c.n:  # a table too short for c: the text of c's own qubits
        text = {q: str(q) for layer in c._columns for q in chain(*layer[1::2], layer[4])}
    return "\nTICK\n".join([
        "\n".join([f"{g.name} {text[a]}" for g, a in zip(g1, a1)] if not g2
                  else [f"{g.name} {text[a]} {text[b]}" for g, a, b in zip(g2, a2, b2)]
                  if not g1
                  else [line for _, line in sorted(zip([*a1, *a2], [
                      *(f"{g.name} {text[a]}" for g, a in zip(g1, a1)),
                      *(f"{g.name} {text[a]} {text[b]}" for g, a, b in zip(g2, a2, b2))]),
                      key=_first)])
        for g1, a1, g2, a2, b2 in c._columns]) + "\n"


def gate_counts(c: Circuit) -> dict[str, int]:
    """Exact tally of instructions by gate name, in first-seen order: each gate
    object's count, merged by name (two gates may share one)."""
    counts: dict[str, int] = {}
    for gate, k in Counter(_gates(c)).items():
        counts[gate.name] = counts.get(gate.name, 0) + k
    return counts


def depth(c: Circuit) -> int:
    return len(c._columns)


def two_qubit_count(c: Circuit) -> int:
    return sum(len(layer[2]) for layer in c._columns)


def expand_ecr(c: Circuit) -> Circuit:
    """Rewrite each ECR as its S/sqrt(X), CX, X circuit identity.

    A layer containing ECRs becomes three layers; any other instructions in
    that layer ride in the middle layer, so disjointness is preserved.
    """
    s, sx, cx, x = builtin("S"), builtin("SQRT_X"), builtin("CX"), builtin("X")
    out: list[list] = []
    for g1, a1, g2, a2, b2 in c._columns:
        ecr = [gate.name == "ECR" for gate in g2]
        if True not in ecr:
            out.append([g1, a1, g2, a2, b2])
            continue
        other = [not e for e in ecr]
        ea, eb = [*compress(a2, ecr)], [*compress(b2, ecr)]
        rg, ra, rb = ([*compress(column, other)] for column in (g2, a2, b2))
        out += [[[s] * len(ea) + [sx] * len(eb), ea + eb, [], [], []],
                [g1, a1, [cx] * len(ea) + rg, ea + ra, eb + rb],
                [[x] * len(ea), ea, [], [], []]]
    return _circuit(c.n, out)
