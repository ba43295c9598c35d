import functools
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from recliff import (
    Circuit, Instruction, ParseError, Pauli, PauliProduct, Tableau, commutes, from_circuit,
    parse,
)
from recliff import tableau as tb
from recliff.circuit import _GATES, DIALECT_GATES, _circuit, _instruction
from recliff.gates import builtin

# 4-qubit interleaved stabilizer-measurement circuit used as the golden
# worked example throughout the suite.
WORKED_EXAMPLE_TEXT = """\
H 0
TICK
CX 0 1
CX 2 3
TICK
CX 0 2
TICK
CX 1 3
TICK
H 0
"""

# Its tableau (all signs +).
WORKED_EXAMPLE_IMAGES = [
    "+X0", "+Z0*X1*X2*X3",
    "+X1*X3", "+X0*Z1",
    "+X2*X3", "+X0*Z2",
    "+X3", "+X0*Z1*Z2*Z3",
]

# Tableau of the bare 4-ECR skeleton of the worked example.
ECR_SKELETON_IMAGES = [
    "-X0*Y1*X2*X3", "+Z0",
    "-Y1*X3", "+Z0*X1*X3",
    "+Z0*Z2*X3", "-Z0*Y2",
    "+X3", "-Z0*Z1*Y2*Z3",
]

# Signs of the fully compiled worked example over ECR with {S, sqrt(X)}.
COMPILED_SIGNS = (1, 1, 1, 1, 1, -1, 1, -1)

CX_IMAGES = ["+X0*X1", "+Z0", "+X1", "+Z0*Z1"]
ECR_IMAGES = ["-Y0*X1", "-Z0", "+X1", "+Z0*Y1"]
SQRT_XX_IMAGES = ["+X0", "-Y0*X1", "+X1", "-X0*Y1"]

# 5-qubit weight-4 X-stabiliser measurement circuit (appendix example).
FAN_OUT_TEXT = """\
H 0
TICK
CX 0 1
TICK
CX 0 2
TICK
CX 0 3
TICK
CX 0 4
TICK
H 0
"""

FAN_OUT_IMAGES = [
    "+X0", "+Z0*X1*X2*X3*X4",
    "+X1", "+X0*Z1",
    "+X2", "+X0*Z2",
    "+X3", "+X0*Z3",
    "+X4", "+X0*Z4",
]

# Tableau of the bare 4-iSWAP ladder on 5 qubits (all signs +).
ISWAP_LADDER_IMAGES = [
    "+Z0*Z1*Z2*Z3*X4", "+Z4",
    "+Y0*Z4", "+Z0",
    "+Y1*Z4", "+Z1",
    "+Y2*Z4", "+Z2",
    "+Y3*Z4", "+Z3",
]

# Basis-change lookup grid: rows and columns ordered by the (X-image, Z-image)
# pairs below; entry = gate mapping the row pair onto the column pair.
LOOKUP_PAIR_ORDER = [
    ("X", "Y"), ("X", "Z"), ("Y", "X"), ("Y", "Z"), ("Z", "X"), ("Z", "Y"),
]
LOOKUP_GRID = [
    ["I", "H_YZ", "H_XY", "C_XYZ", "C_ZYX", "H"],
    ["H_YZ", "I", "C_XYZ", "H_XY", "H", "C_ZYX"],
    ["H_XY", "C_ZYX", "I", "H", "H_YZ", "C_XYZ"],
    ["C_ZYX", "H_XY", "H", "I", "C_XYZ", "H_YZ"],
    ["C_XYZ", "H", "H_YZ", "C_ZYX", "I", "H_XY"],
    ["H", "C_XYZ", "C_ZYX", "H_YZ", "H_XY", "I"],
]


def images_tableau(strings: list[str]) -> Tableau:
    n = len(strings) // 2
    return Tableau.from_images(n, [PauliProduct.from_string(s, n) for s in strings])


# ---------------------------------------------------------------------------
# Pauli-product algebra the package itself does without: products with their
# phases, and the image of any product under a tableau.  The tests use them
# as oracles for the package's bitwise tables.


def single(n: int, qubit: int, pauli: Pauli, sign: int = 1) -> PauliProduct:
    """The product with one Pauli on one qubit of n."""
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for n={n}")
    return PauliProduct(n, ((pauli >> 1) & 1) << qubit, (pauli & 1) << qubit, sign)


def phase_exponent(a: PauliProduct, b: PauliProduct) -> int:
    """Exponent of i in the product a*b (sign factors folded in), mod 4.

    Per qubit, ZX = iY, XY = iZ and YZ = iX contribute +1, the reversed
    orders -1; all qubits are counted at once with word-wide masks.
    """
    e = 0 if a.sign > 0 else 2
    e += 0 if b.sign > 0 else 2
    ax, ay, az = a.x & ~a.z, a.x & a.z, a.z & ~a.x
    bx, by, bz = b.x & ~b.z, b.x & b.z, b.z & ~b.x
    plus = (az & bx) | (ax & by) | (ay & bz)
    minus = (az & by) | (ax & bz) | (ay & bx)
    return (e + plus.bit_count() - minus.bit_count()) & 3


def conjugate_product(t: Tableau, p: PauliProduct) -> PauliProduct:
    """Image of an arbitrary Pauli product under the tableau's circuit.

    Decomposes p into generators (X factors first, then Z factors, each in
    ascending qubit order, with one i per Y) and multiplies the corresponding
    images, tracking the phase exponent mod 4.  A unitary image of a Hermitian
    operator is Hermitian, so the net phase is always real.
    """
    if p.n != t.n:
        raise ValueError(f"size mismatch: product n={p.n}, tableau n={t.n}")
    n = t.n
    exponent = (p.x & p.z).bit_count()  # one i per Y in the canonical form
    if p.sign < 0:
        exponent += 2
    acc = PauliProduct(n)
    rows = [2 * j for j in range(n) if (p.x >> j) & 1]
    rows += [2 * j + 1 for j in range(n) if (p.z >> j) & 1]
    for g in rows:
        img = t._image(g)
        exponent += phase_exponent(acc, img)
        acc = PauliProduct(n, acc.x ^ img.x, acc.z ^ img.z)
    exponent &= 3
    if exponent & 1:
        raise AssertionError("conjugated Hermitian product came out imaginary")
    return PauliProduct(n, acc.x, acc.z, 1 if exponent == 0 else -1)


def one_local_letter(gate, wire: int) -> Pauli | None:
    """The input letter on a two-qubit gate's wire whose image is one-local
    (the last of X, Y, Z that is), or None: the letter the compiler protects
    on that wire, the commuting one of a CX-like gate, the hopping one of an
    iSWAP-like gate."""
    if gate.arity != 2:
        return None
    found = None
    for letter in (Pauli.X, Pauli.Y, Pauli.Z):
        img = conjugate_product(gate.semantics, single(2, wire, letter))
        if (img.x | img.z).bit_count() == 1:
            found = letter
    return found


@functools.lru_cache(maxsize=None)
def reference_lut(gate):
    """The gate's conjugation lookup, built from its tableau with conjugate_product.

    Returns ``(out_bits, sign)``: the key packs the local bits x_a, z_a(, x_b,
    z_b), most significant first; ``out_bits`` holds one uint8 array per
    output bit in the same order and ``sign`` an int8 array of +1/-1.  This is
    the generator-major table gates were once stored as.
    """
    nbits = 2 * gate.arity
    outs = [np.zeros(1 << nbits, dtype=np.uint8) for _ in range(nbits)]
    sign = np.ones(1 << nbits, dtype=np.int8)
    for key in range(1 << nbits):
        bits = [(key >> (nbits - 1 - i)) & 1 for i in range(nbits)]
        x = sum(bits[2 * w] << w for w in range(gate.arity))
        z = sum(bits[2 * w + 1] << w for w in range(gate.arity))
        img = conjugate_product(gate.semantics, PauliProduct(gate.arity, x, z))
        for w in range(gate.arity):
            outs[2 * w][key] = (img.x >> w) & 1
            outs[2 * w + 1][key] = (img.z >> w) & 1
        sign[key] = img.sign
    return tuple(outs), sign


def multiply(a: PauliProduct, b: PauliProduct) -> PauliProduct:
    """Product a*b with any +/-i phase dropped to a sign: a test reference."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    sign = -1 if phase_exponent(a, b) >= 2 else 1
    return PauliProduct(a.n, a.x ^ b.x, a.z ^ b.z, sign)


@functools.cache
def two_qubit_symplectic_maps() -> tuple[tuple[PauliProduct, ...], ...]:
    """Every two-qubit Clifford up to signs: the 720 images (X0, Z0, X1, Z1)
    among the 15 non-identity Paulis that commute as the generators do, only
    X_j with Z_j anticommuting.  All signs are +."""
    paulis = [PauliProduct(2, k >> 2, k & 3) for k in range(1, 16)]
    return tuple(
        images for images in itertools.permutations(paulis, 4)
        if all(commutes(a, b) == (g >> 1 != h >> 1)
               for (g, a), (h, b) in itertools.combinations(enumerate(images), 2))
    )


# ---------------------------------------------------------------------------
# The two-tableau oracle: the checks `certify` replaced in the library, kept
# row-native as they were, to compare its verdicts, frames and permutations.


class FrameSolveError(ValueError):
    """The frame system is inconsistent: the input was not a unitary tableau."""


def equal_up_to_sign(t1: Tableau, t2: Tableau) -> tuple[bool, int | None]:
    """Letter-exact equality; on success also the per-generator sign flips.

    Returns ``(True, flips)`` when all supports and local Paulis match, where
    bit g of the int ``flips`` is set exactly when the signs of generator g
    disagree.  Returns ``(False, None)`` otherwise.
    """
    if t1.n != t2.n or t1._x != t2._x or t1._z != t2._z:
        return False, None
    return True, t1._sign ^ t2._sign


def match_wires(t1: Tableau, t2: Tableau) -> tuple[int, ...] | None:
    """The wire relabelling sigma making ``t2.relabel_wires(sigma)`` letter-equal to t1.

    The [X|Z] matrix of a unitary tableau is invertible, so the row pairs
    (x[q], z[q]) of t1 are distinct and sigma, when it exists, is unique.
    Returns None when no relabelling makes the letters agree.
    """
    if t1.n != t2.n:
        return None
    wire_of = {pair: q for q, pair in enumerate(zip(t1._x, t1._z))}
    sigma = tuple(wire_of.get(pair, -1) for pair in zip(t2._x, t2._z))
    if -1 in sigma or len(set(sigma)) != t1.n:
        return None
    return sigma


def solve_frame(t: Tableau, flips: int) -> PauliProduct:
    """Pauli product F anticommuting with exactly the flagged generator images.

    Bit g of ``flips`` flags generator g, in the order X_0, Z_0, X_1, ...  The
    images form a symplectic basis, so F = prod_j image(X_j)^{flip(Z_j)} *
    image(Z_j)^{flip(X_j)}; on the rows, with m the flip mask with each
    (X_j, Z_j) bit pair swapped, F.x_q = parity(x[q] & m) and F.z_q =
    parity(z[q] & m).  The same pass checks that F anticommutes with exactly
    the flagged images.  The result has sign +1.
    """
    if flips < 0 or flips >> 2 * t.n:
        raise ValueError(f"flip mask {flips:#x} must lie in 0 .. 2**{2 * t.n} - 1")
    even = ((1 << 2 * t.n) - 1) // 3  # bits 0, 2, 4, ...: the X_j generators
    m = ((flips & even) << 1) | ((flips >> 1) & even)
    fx = fz = anticommuting = 0
    for q, (xq, zq) in enumerate(zip(t._x, t._z)):
        if (xq & m).bit_count() & 1:
            fx |= 1 << q
            anticommuting ^= zq
        if (zq & m).bit_count() & 1:
            fz |= 1 << q
            anticommuting ^= xq
    if anticommuting != flips:
        raise FrameSolveError(
            "no Pauli frame realises the requested sign flips; "
            "generator images do not form a symplectic basis"
        )
    return PauliProduct(t.n, fx, fz)


def oracle_certificate(a: Circuit, b: Circuit):
    """``(permutation, frame)`` from two simulations, a wire match and a frame
    solve, or None: what ``certify(a, b)`` must return."""
    ta, t_b = from_circuit(a), from_circuit(b)
    sigma = match_wires(ta, t_b)
    if sigma is None:
        return None
    ok, flips = equal_up_to_sign(ta, t_b.relabel_wires(sigma))
    assert ok
    return sigma, solve_frame(ta, flips)


def reference_solve_frame(images, flips: int):
    """The generator-major frame solve the row-native ``solve_frame`` replaced:
    multiply the images the closed form selects, then check commutation
    against every image.  Bit g of ``flips`` flags generator g."""
    n = len(images) // 2
    f = PauliProduct(n)
    for j in range(n):
        if (flips >> (2 * j + 1)) & 1:
            f = multiply(f, images[2 * j])
        if (flips >> (2 * j)) & 1:
            f = multiply(f, images[2 * j + 1])
    f = PauliProduct(n, f.x, f.z, 1)
    for g, img in enumerate(images):
        if commutes(f, img) == bool((flips >> g) & 1):
            raise FrameSolveError("generator images do not form a symplectic basis")
    return f


# ---------------------------------------------------------------------------
# The certificate's per-wire walk as it was before its step dicts and aligned
# layers: each gate's table looked up per gate, a dict of b's relabelled pairs
# per entangler layer, and every 2-qubit step from the uncached
# ``tableau._kernel_step``.  ``tableau._local`` must agree with it on every
# pair, falling back on the same ones.


def reference_states(a: Circuit, b: Circuit) -> tuple[list[int], list[int]]:
    """The walk's states of a b^-1, by a's wire, and its relabelling ``sigma``
    (b's wire j is a's wire ``sigma[j]``); ``tableau._Fallback`` where the
    walk cannot decide, and ``ValueError`` on a bad gate."""
    n = a.n
    states, sigma, tables = [tb._ONE] * n, list(range(n)), {}

    def segments(c: Circuit, inverse: bool, wire: list[int]):
        for g1, a1, g2, a2, b2 in tb._checked(c):
            for gate, q in zip(g1, a1):
                if (gate, inverse) not in tables:
                    kernel = gate.kernel_inv if inverse else gate.kernel
                    tables[gate, inverse] = tb._table(kernel, inverse)
                states[wire[q]] = tables[gate, inverse][states[wire[q]]]
            if g2:
                yield g2, a2, b2

    b_layers = segments(b, True, sigma)
    for gates, ps, qs in segments(a, False, list(range(n))):
        other = {(sigma[i], sigma[j]): (gate, i, j)
                 for gate, i, j in zip(*next(b_layers, ([], [], [])))}
        if len(other) != len(gates):
            raise tb._Fallback
        for gate, p, q in zip(gates, ps, qs):
            flipped = (p, q) not in other
            match = other.get((q, p) if flipped else (p, q))
            done = match and tb._kernel_step(gate.kernel, match[0].kernel_inv, flipped,
                                             states[p], states[q])
            if not done:
                raise tb._Fallback
            states[p], states[q], swapped = done
            if swapped:
                _, i, j = match
                sigma[i], sigma[j] = sigma[j], sigma[i]
    if next(b_layers, None) is not None:
        raise tb._Fallback
    return states, sigma


def reference_pauli(states) -> PauliProduct | None:
    """``tableau._pauli`` as it read the frame before its byte tables: one
    ``any`` over the states, then one join per frame half."""
    if any(key & 15 != 0b1001 for key in states):
        return None
    fx = int("0" + "".join(["01"[key >> 5] for key in reversed(states)]), 2)
    fz = int("0" + "".join(["01"[key >> 4 & 1] for key in reversed(states)]), 2)
    return PauliProduct(len(states), fx, fz)


def reference_walk(a: Circuit, b: Circuit):
    """What ``tableau._local`` must return for a and b of one size, or raise."""
    states, sigma = reference_states(a, b)
    frame = reference_pauli(states)
    return None if frame is None else (tuple(sigma), frame)


# ---------------------------------------------------------------------------
# The parser as it was before its canonical-line branch: one split, one
# gate-table lookup and one isdigit per line.  The library's must agree with
# it on every text, circuits and error messages alike.


def oracle_parse(text: str) -> Circuit:
    ascii_text = text.isascii()
    layer: list[Instruction] = []
    layers = [layer]
    used: set[int] = set()
    useds = [used]
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        if not "".join(tokens).isdigit():
            if tokens:
                raise ParseError(f"line {lineno}: malformed qubit target in {raw.strip()!r}")
            raise ParseError(f"line {lineno}: {gate.name} needs at least one target")
        try:
            qs = [int(tokens[0])] if len(tokens) == 1 else [*map(int, tokens)]
        except ValueError:
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
    return Circuit(1 + max(map(max, filter(None, useds)), default=-1), layers)


def unchecked_circuit(n: int, layers) -> Circuit:
    """A circuit from layers of instructions, built as the pipeline builds
    circuits (``circuit._circuit``'s five columns) and checked no more: each
    instruction goes by its number of qubits, whatever its gate's arity."""
    def columns(layer):
        ones = [inst for inst in layer if len(inst.qubits) == 1]
        twos = [inst for inst in layer if len(inst.qubits) != 1]
        return [[inst.gate for inst in ones], [inst.qubits[0] for inst in ones],
                [inst.gate for inst in twos], *([inst.qubits[k] for inst in twos] for k in (0, 1))]
    return _circuit(n, map(columns, layers))


@pytest.fixture
def worked_example() -> Circuit:
    return parse(WORKED_EXAMPLE_TEXT)


@pytest.fixture
def worked_example_tableau() -> Tableau:
    return images_tableau(WORKED_EXAMPLE_IMAGES)


@pytest.fixture
def fan_out_circuit() -> Circuit:
    return parse(FAN_OUT_TEXT)


# Dialect text for the parser and CLI fuzz tests.  Targets are small (so
# pairs and layers collide), padded with leading zeros, or huge: 4,300
# digits is the longest target Python converts from text.
HUGE_TARGETS = ("9" * 4300, "9" * 4301, "0" * 4301 + "3")


def _target(k: int) -> str:
    if k < 48:
        return str(k)
    if k < 60:
        return "0" * (k % 3 + 1) + str(k % 13)
    return HUGE_TARGETS[k - 60]


_targets = st.integers(0, 59 + len(HUGE_TARGETS)).map(_target)
_spaces = st.sampled_from([" ", "  ", "\t", " \t "])
_comments = st.sampled_from(["", " # note", "  # q\u00fcbit \u2028 \u0661", "#"])
_other_lines = st.sampled_from([
    "TICK", "TICK", "TICK\nTICK\nTICK", "", "   ", "# comment \u00e9", "QUBIT_COORDS(0, 1) 3",
    "QUBIT_COORDS(2) 0 1",
])


@st.composite
def _gate_lines(draw):
    name = draw(st.sampled_from(sorted(DIALECT_GATES) + ["CNOT"]))
    count = builtin(name).arity * draw(st.integers(1, 3))
    tokens = [name, *draw(st.lists(_targets, min_size=count, max_size=count))]
    line = "".join(tok + draw(_spaces) for tok in tokens[:-1]) + tokens[-1]
    return draw(st.sampled_from(["", "", " ", "\t"])) + line + draw(_comments)


@st.composite
def dialect_texts(draw):
    """Dialect text, often valid: every gate, CNOT, multi-target lines,
    indents, QUBIT_COORDS, comments, blank lines, TICK runs, leading zeros, CRLF."""
    lines = draw(st.lists(st.one_of(_gate_lines(), _other_lines), max_size=12))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


_inserts = st.sampled_from([
    b"\x00", b"\xff", b"\xc3", "\u00e9".encode(), "\uff11".encode(), b"#", b"(", b" ",
    b"\n", b"\r", b"-", b"TICK", b"9" * 4301,
])


@st.composite
def mutated_texts(draw):
    """UTF-8 bytes of dialect text after up to three byte-level mutations:
    truncation, an inserted byte string, or a dropped or duplicated token."""
    data = draw(dialect_texts()).encode()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["truncate", "insert", "drop", "duplicate"]))
        if op == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif op == "insert":
            i = draw(st.integers(0, len(data)))
            data = data[:i] + draw(_inserts) + data[i:]
        else:
            tokens = data.split(b" ")
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i:i + 1] = [] if op == "drop" else [tokens[i], tokens[i]]
            data = b" ".join(tokens)
    return data


GATES_1Q = ("X", "Y", "Z", "H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG",
            "H_XY", "H_YZ", "C_XYZ", "C_ZYX")
GATES_2Q = ("CX", "CZ", "SQRT_XX", "ECR", "ISWAP", "CXSWAP", "CZSWAP", "SWAP")


@st.composite
def relabelled_pairs(draw, max_n=6, relabel=True):
    """(A, B) where B is A followed by a SWAP network relabelling its output
    wires (unless not ``relabel``), sometimes with one gate of B changed or
    a Pauli layer appended."""
    n = draw(st.integers(1, max_n))
    layers = [[Instruction(builtin(draw(st.sampled_from(GATES_1Q))), (q,)) for q in range(n)]]
    for _ in range(draw(st.integers(0, 6))):
        order = draw(st.permutations(range(n)))
        pairs = draw(st.integers(0, n // 2))
        layer = [Instruction(builtin(draw(st.sampled_from(GATES_2Q))),
                             (order[2 * i], order[2 * i + 1])) for i in range(pairs)]
        layer += [Instruction(builtin(draw(st.sampled_from(GATES_1Q))), (q,))
                  for q in order[2 * pairs:] if draw(st.booleans())]
        if layer:
            layers.append(layer)
    a = Circuit(n, tuple(tuple(l) for l in layers))
    wires = list(range(n))
    swaps = []
    for i, target in enumerate(draw(st.permutations(range(n))) if relabel else range(n)):
        j = wires.index(target)
        if j != i:
            wires[i], wires[j] = wires[j], wires[i]
            swaps.append((Instruction(builtin("SWAP"), (i, j)),))
    b_layers = [list(l) for l in layers] + [list(l) for l in swaps]
    change = draw(st.sampled_from(("none", "gate", "paulis")))
    if change == "gate":
        li = draw(st.integers(0, len(b_layers) - 1))
        k = draw(st.integers(0, len(b_layers[li]) - 1))
        old = b_layers[li][k]
        names = GATES_1Q if old.gate.arity == 1 else GATES_2Q
        name = draw(st.sampled_from([g for g in names if g != old.gate.name]))
        b_layers[li][k] = Instruction(builtin(name), old.qubits)
    elif change == "paulis":
        b_layers.append([Instruction(builtin(draw(st.sampled_from("XYZ"))), (q,))
                         for q in range(n) if draw(st.booleans())])
    b = Circuit(n, tuple(tuple(l) for l in b_layers if l))
    return a, b
