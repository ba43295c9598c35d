"""Canonical Clifford gate definitions and gateset machinery.

Every gate is defined by its conjugation semantics, image(P) = G P G-dagger,
stored as a small tableau.  From the tableau each GateDef builds one int
table mapping the local bit pattern of a Pauli product on the gate's wires
to the conjugated pattern and sign, and reads off it:

* the bitwise update rule the tableau applies to the rows of the gate's
  wires (see :func:`_update_rule`), compiled once into a straight-line
  kernel function (see :func:`_compile_kernel`), and the same for the
  gate's inverse, whose table is the forward one read backwards,
* each wire's landing set, the supports its X, Y and Z land on, and from
  wire 0's the entangler class; the letters a compile protects are not kept
  here, the sweep reads them off the certificate's 2-qubit step (see
  :func:`compiler._step_table`),
* for single-qubit gates, the induced permutation of the Pauli letters.

Native words and their residual Paulis (:func:`decompose_single_qubit`)
are read off the certificate's 1-qubit states: this module builds no circuit.

The registry covers the standard stim-named gates plus ECR.  ECR's tableau is
built by composing S(x)sqrt(X), CX, X(x)I and asserted against the frozen
golden constant at import, so a sign-convention drift fails immediately.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Literal, Sequence

from .pauli import Pauli, PauliProduct, _Record
from . import tableau as tb
from .tableau import Tableau

EntanglerClass = Literal["none", "cx_like", "iswap_like", "swap_like"]

# Letter permutations are (image of X, image of Z) as Pauli codes.
LetterPerm = tuple[int, int]


def perm_apply(perm: LetterPerm, code: int) -> int:
    if code == Pauli.I:
        return Pauli.I
    if code == Pauli.X:
        return perm[0]
    if code == Pauli.Z:
        return perm[1]
    return perm[0] ^ perm[1]  # Y = X*Z, letter-wise xor


def _update_rule(table: Sequence[int], signs: Sequence[int]) -> tuple:
    """Bitwise tableau update ``(linear, sign_terms)`` read off a gate's table.

    Bits are indexed in key order (x_a, z_a, x_b, z_b; most significant key
    bit first).  Conjugation is linear over GF(2), so output bit o is the XOR
    of the input bits in ``linear[o]``.  The sign flips by the XOR, over
    ``sign_terms``, of the AND of each term's input bits: the algebraic
    normal form (Moebius transform) of ``signs``.
    """
    nbits = len(table).bit_length() - 1

    def inputs_of(key: int) -> tuple[int, ...]:
        return tuple(i for i in range(nbits) if (key >> (nbits - 1 - i)) & 1)

    linear = tuple(
        tuple(i for i in range(nbits) if (table[1 << (nbits - 1 - i)] >> (nbits - 1 - o)) & 1)
        for o in range(nbits)
    )
    anf = [int(s < 0) for s in signs]
    for bit in range(nbits):
        for key in range(len(anf)):
            if key >> bit & 1:
                anf[key] ^= anf[key ^ (1 << bit)]
    if anf[0]:
        raise AssertionError("gate lookup table flips the identity's sign")
    return linear, tuple(inputs_of(key) for key in range(len(anf)) if anf[key])


@cache
def _compile_kernel(rule: tuple, arity: int) -> Callable[..., int]:
    """The update rule as one straight-line function of the tableau rows.

    ``kernel(xs, zs, a[, b])`` overwrites the X and Z rows of wires a (and b)
    and returns the sign flip, so applying a gate costs one call and no loop
    over the rule.  The source interpolates only the row indices of the rule.
    Kernels are cached by rule, so gates of one semantics share them and a
    cache keyed by kernels keeps no gate alive.
    """
    linear, sign_terms = rule
    rows = [f"{'xz'[i & 1]}s[{'ab'[i >> 1]}]" for i in range(2 * arity)]
    body = [f"r{i} = {row}" for i, row in enumerate(rows)]
    for k, inputs in enumerate(linear):
        if inputs != (k,):
            body.append(f"{rows[k]} = " + " ^ ".join(f"r{i}" for i in inputs))
    flip = " ^ ".join("(" + " & ".join(f"r{i}" for i in term) + ")" for term in sign_terms)
    body.append(f"return {flip or 0}")
    params = ", ".join(["xs", "zs", "a", "b"][: 2 + arity])
    namespace: dict = {}
    exec(f"def kernel({params}):\n    " + "\n    ".join(body), namespace)
    return namespace["kernel"]


class GateDef:
    """A named Clifford gate with exact conjugation semantics.

    Everything is read off one table built at definition: ``table[key]`` is
    the conjugated local bit pattern of the Pauli product with pattern
    ``key``, and ``signs[key]`` its sign.  A pattern is the Pauli codes
    (2x+z) of the gate's wires, wire 0 in the most significant pair: 4 keys
    for arity 1, 16 for arity 2.
    """

    __slots__ = (
        "name", "arity", "semantics", "entangler_class",
        "rule", "kernel", "kernel_inv", "perm",
    )

    def __init__(self, name: str, arity: int, semantics: Tableau):
        if arity not in (1, 2):
            raise ValueError("gate arity must be 1 or 2")
        if semantics.n != arity:
            raise ValueError("semantics size does not match arity")
        if not semantics.is_symplectic():
            raise ValueError(f"gate {name}: semantics violate the symplectic condition")
        self.name = name
        self.arity = arity
        self.semantics = semantics
        shifts = [2 * (arity - 1 - w) for w in range(arity)]
        size, zs = 1 << 2 * arity, 0b0101 >> 4 - 2 * arity  # zs: each wire's z bit
        ys = [(key >> 1 & key & zs).bit_count() for key in range(size)]  # Y count
        # Generator g (X_0, Z_0, X_1, Z_1) is key bit 2*arity-1-g.  A key's Pauli is
        # i^ys times its generators, top bit first, so its image is i^ys times the
        # product of theirs.  Kept as i^h X^x Z^z, that product is the key's without
        # its lowest bit times that bit's, by Z^z X^x' = (-1)^|z & x'| X^x' Z^z.
        table, h = [0] * size, [0] * size
        for g, img in enumerate(semantics.images()):
            key = size >> 1 + g
            table[key] = sum((img.x >> w & 1) << s + 1 | (img.z >> w & 1) << s
                             for w, s in enumerate(shifts))
            h[key] = 1 - img.sign + ys[table[key]]
        for key in range(size):
            rest, low = key & key - 1, key & -key
            if rest:
                table[key] = table[rest] ^ table[low]
                h[key] = h[rest] + h[low] + 2 * (table[rest] & table[low] >> 1 & zs).bit_count()
        signs = [1 - (ys[key] + h[key] - ys[table[key]] & 3) for key in range(size)]
        self.rule = _update_rule(table, signs)
        self.kernel = _compile_kernel(self.rule, arity)
        # G P G^-1 = s Q gives G^-1 Q G = s P: the inverse maps each image
        # back to its key, with the same sign.
        inv, inv_signs = [0] * len(table), [1] * len(table)
        for key, (img, sign) in enumerate(zip(table, signs)):
            inv[img], inv_signs[img] = key, sign
        self.kernel_inv = _compile_kernel(_update_rule(inv, inv_signs), arity)
        if arity == 1:
            self.perm: LetterPerm | None = (table[Pauli.X], table[Pauli.Z])
            self.entangler_class: EntanglerClass = "none"
            return
        self.perm = None
        # Each wire's landing set: the supports, as (on wire 0, on wire 1), of
        # its Z, X and Y images.  Unless every letter stays put (no entangler)
        # or every letter hops (swap-like), a two-qubit Clifford keeps a letter
        # in place on both wires (CX-like) or on neither (iSWAP-like).
        on0, on1 = (True, False), (False, True)
        lands = [{(table[p << s] > 3, table[p << s] & 3 > 0) for p in (1, 2, 3)} for s in (2, 0)]
        if lands == [{on0}, {on1}]:
            self.entangler_class = "none"
        elif lands == [{on1}, {on0}]:
            self.entangler_class = "swap_like"
        else:
            self.entangler_class = "cx_like" if on0 in lands[0] else "iswap_like"

    def __deepcopy__(self, memo: dict | None = None) -> "GateDef":
        return self  # gates compare by identity, so a copy is the gate itself

    __copy__ = __deepcopy__

    def __reduce__(self) -> tuple:
        """A builtin unpickles to the shared registry gate, any other gate to a
        new one with the same name, arity and semantics."""
        if _REGISTRY.get(self.name) is self:
            return builtin, (self.name,)
        return GateDef, (self.name, self.arity, self.semantics)

    def __repr__(self) -> str:
        return f"GateDef({self.name})"


def _images(n: int, *strings: str) -> Tableau:
    return Tableau.from_images(n, [PauliProduct.from_string(s, n) for s in strings])


def _build_registry() -> dict[str, GateDef]:
    reg: dict[str, GateDef] = {}

    def g1(name, img_x, img_z):
        reg[name] = GateDef(name, 1, _images(1, img_x, img_z))

    # images of (X, Z) under G P G-dagger
    g1("I", "+X0", "+Z0")
    g1("X", "+X0", "-Z0")
    g1("Y", "-X0", "-Z0")
    g1("Z", "-X0", "+Z0")
    g1("H", "+Z0", "+X0")
    g1("S", "+Y0", "+Z0")
    g1("S_DAG", "-Y0", "+Z0")
    g1("SQRT_X", "+X0", "-Y0")
    g1("SQRT_X_DAG", "+X0", "+Y0")
    g1("H_XY", "+Y0", "-Z0")
    g1("H_YZ", "-X0", "+Y0")
    g1("C_XYZ", "+Y0", "+X0")
    g1("C_ZYX", "+Z0", "+Y0")

    def g2(name, img_x0, img_z0, img_x1, img_z1):
        reg[name] = GateDef(name, 2, _images(2, img_x0, img_z0, img_x1, img_z1))

    g2("CX", "+X0*X1", "+Z0", "+X1", "+Z0*Z1")
    g2("CZ", "+X0*Z1", "+Z0", "+Z0*X1", "+Z1")
    g2("SWAP", "+X1", "+Z1", "+X0", "+Z0")
    g2("ISWAP", "+Z0*Y1", "+Z1", "+Y0*Z1", "+Z0")
    # Molmer-Sorensen interaction at maximal entangling angle; golden constant
    # re-derived from the dense matrix exp(-i pi/4 XX) in the test suite.
    g2("SQRT_XX", "+X0", "-Y0*X1", "+X1", "-X0*Y1")

    reg["CXSWAP"] = _composed_from(reg, "CXSWAP", [("CX", (0, 1)), ("SWAP", (0, 1))])
    reg["CZSWAP"] = _composed_from(reg, "CZSWAP", [("CZ", (0, 1)), ("SWAP", (0, 1))])

    # ECR defined by its circuit identity: S(x)sqrt(X), then CX, then X(x)I.
    ecr = _composed_from(
        reg, "ECR", [("S", (0,)), ("SQRT_X", (1,)), ("CX", (0, 1)), ("X", (0,))]
    )
    golden = _images(2, "-Y0*X1", "-Z0", "+X1", "+Z0*Y1")
    if ecr.semantics != golden:
        raise AssertionError("ECR composition disagrees with its golden tableau")
    reg["ECR"] = ecr
    return reg


def _composed_from(reg, name, steps):
    t = tb.identity(2)
    for gate_name, qubits in steps:
        t = tb.append_gate(t, reg[gate_name], qubits)
    return GateDef(name, 2, t)


_REGISTRY = _build_registry()


#: Other names for built-in gates, accepted by :func:`builtin` and the parser.
ALIASES = {"CNOT": "CX"}


def builtin(name: str) -> GateDef:
    """Look up a built-in gate by its canonical (stim-style) name or an alias."""
    try:
        return _REGISTRY[ALIASES.get(name, name)]
    except KeyError:
        raise ValueError(f"unknown gate: {name!r}") from None


#: The six single-qubit basis-change classes, in insertion precedence order.
CLASS_GATE_ORDER = ("I", "H_XY", "H_YZ", "H", "C_XYZ", "C_ZYX")
CLASS_GATES = tuple(_REGISTRY[name] for name in CLASS_GATE_ORDER)


class GateSet(_Record):
    """A native gateset: one two-qubit entangler plus single-qubit generators.

    Built whole, it also holds what every compile onto it reads: the natives'
    shortest word to each basis-change class (``_class_search``, the one
    :func:`tableau._reach` that every decomposition on it reads), the
    :func:`decompose_single_qubit` of each of the six CLASS_GATES
    (``_class_words``), and the compiler's sweep steps through source
    entanglers (``_step_tables``), filled on first use by the source gate's
    kernel, as the certificate's caches are, so no source gate is kept alive.
    A builtin gateset is shared, so these are made once per process.
    """

    name: str
    entangler: GateDef
    single_qubit_natives: tuple[GateDef, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "single_qubit_natives", tuple(self.single_qubit_natives))
        if not isinstance(self.entangler, GateDef):
            raise TypeError(f"GateSet.entangler must be a GateDef, got {self.entangler!r}")
        for g in self.single_qubit_natives:
            if not isinstance(g, GateDef):
                raise TypeError(f"GateSet.single_qubit_natives must hold GateDefs, got {g!r}")
        if self.entangler.arity != 2:
            raise ValueError("gateset entangler must be a two-qubit gate")
        if self.entangler.entangler_class not in ("cx_like", "iswap_like"):
            raise ValueError(
                f"{self.entangler.name} is {self.entangler.entangler_class}; "
                "the gateset entangler must be entangling"
            )
        if any(g.arity != 1 for g in self.single_qubit_natives):
            raise ValueError("single-qubit natives must have arity 1")
        search = tb._reach(self.single_qubit_natives, 15)
        if len(search) != 6:
            raise ValueError(
                "single-qubit natives do not generate all Pauli-basis changes "
                f"(got {len(search)} of 6 classes)"
            )
        object.__setattr__(self, "_class_search", search)
        object.__setattr__(self, "_class_words",
                           tuple(decompose_single_qubit(g, self) for g in CLASS_GATES))
        object.__setattr__(self, "_step_tables", {})


def decompose_single_qubit(
    g: GateDef, natives: GateSet
) -> tuple[tuple[GateDef, ...], PauliProduct]:
    """Shortest native word equal to g up to a trailing Pauli.

    Returns ``(word, residual)`` with g == word followed by residual, exactly.
    The word is the natives' shortest one with g's letters, breadth first in
    the order the natives are listed, so ties resolve deterministically; it
    is read off the gateset's one search (``GateSet._class_search``), which
    reaches every class.  The residual is the 1-qubit state of the word's
    inverse followed by g, a Pauli as the word has g's letters, read off by
    :func:`tableau._pauli`.
    """
    if g.arity != 1:
        raise ValueError("decompose_single_qubit expects a single-qubit gate")
    word = natives._class_search[tb._run(tb._ONE, (g.kernel,)) & 15]
    state = tb._run(tb._ONE, (*(step.kernel_inv for step in reversed(word)), g.kernel))
    return word, tb._pauli((state,))


#: Built-in gateset names accepted by the CLI and the compiler helpers.
TARGET_ENTANGLERS = {
    "cx": "CX",
    "cz": "CZ",
    "sqrt_xx": "SQRT_XX",
    "ecr": "ECR",
    "iswap": "ISWAP",
}

NATIVE_SETS = {
    "s_sx": ("S", "SQRT_X"),
    "class6": ("H", "H_XY", "H_YZ", "C_XYZ", "C_ZYX"),
}


_GATESETS: dict[tuple[str, str], GateSet] = {}  # filled on first use


def builtin_gateset(target: str, natives: str = "s_sx") -> GateSet:
    """A named gateset, e.g. ``builtin_gateset("ecr", "s_sx")``: one shared
    gateset per name pair, as :func:`builtin` returns one gate per name."""
    if (target, natives) in _GATESETS:
        return _GATESETS[target, natives]
    if target not in TARGET_ENTANGLERS:
        raise ValueError(f"unknown target gateset {target!r}; "
                         f"choose from {sorted(TARGET_ENTANGLERS)}")
    if natives not in NATIVE_SETS:
        raise ValueError(f"unknown native set {natives!r}; "
                         f"choose from {sorted(NATIVE_SETS)}")
    return _GATESETS.setdefault((target, natives), GateSet(
        name=target,
        entangler=builtin(TARGET_ENTANGLERS[target]),
        single_qubit_natives=tuple(builtin(n) for n in NATIVE_SETS[natives]),
    ))
