"""Retarget unitary stabilizer circuits onto a native gateset.

One sweep over the source builds the output.  Each source entangler becomes
the native entangler on the same qubit pair and in the same layer (the
two-qubit count is forced, so this skeleton is minimal); the sweep adds only
single-qubit basis changes, placed by one layer builder:

1.  Propagation.  For each wire the sweep tracks the Pauli-letter
    permutation relating the source's instantaneous conjugation to the
    output's.  A two-qubit Clifford leaves one input letter per wire
    un-spread (Z on a CX control, X on its target, X on both wires of the XX
    interaction, and so on); the wire's permutation must carry the source
    gate's protected letter onto the native gate's.  Where it does not, a
    basis change inserted just before the entangler repairs it.  The
    constraint is per-wire separable, so one sweep in time order fixes every
    generator's propagation at once.  Each wire holds one of six
    permutations, so a step through an entangler, fixes and transfer, is one
    lookup in a 36-entry table.  In the swap-insertion mode the sweep
    exchanges the pair's output labels after each native entangler instead
    of emitting a SWAP, so later gates land on the relabelled wires.
2.  Conjugation.  After the last layer each wire is off from the source by a
    pure letter permutation; one basis change appended per wire removes it.
    Single-qubit layers never end up adjacent, so nothing needs fusing.
3.  Native words.  The builder writes each basis change as its native word,
    dropping the word's residual Pauli.  Words, insertion choices and step
    tables (one per mode and source gate) depend only on the gateset and are
    derived on first use and kept on it; a builtin gateset is shared, so
    they are derived once per process.  The swap-insertion mode reads the
    native's table with its output wires exchanged and builds no gate.
4.  Frame.  The output is certified against the source: the map from the
    source to the output must be a Pauli times the sweep's wire permutation
    (the identity outside the swap-insertion mode); a failed check raises.
    The output's entangler layers are the source's, so the certificate walks
    them per wire and builds no n-qubit tableau.  The Pauli is the frame,
    reported or folded in as a final layer.

Both entry points run this pipeline; only one lets the source cross
entangler classes.  Folding certifies the frame layer on its own, which
must give the frame itself; the whole output is not walked again.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

from .pauli import Pauli, PauliProduct, terms
from . import tableau as tb
from .circuit import Circuit, Instruction, _circuit, _instruction, depth, gate_counts
from .gates import (
    PERM_APPLY,
    PERM_COMPOSE,
    PERM_INDEX,
    PERM_INVERT,
    PERMS,
    GateDef,
    GateSet,
    builtin,
    class_gate_for_perm,
)
from .reporting import Report, report


class CompileError(RuntimeError):
    """The source cannot be compiled as requested."""


class VerificationError(RuntimeError):
    """A compiled circuit failed its tableau equivalence check."""


FRAME_MODES = ("report", "fold", "none")

_gate = attrgetter("gate")


# ---------------------------------------------------------------------------
# Basis-change lookup


def conjugation_lookup(
    current: tuple[Pauli, Pauli], target: tuple[Pauli, Pauli]
) -> GateDef:
    """The basis-change gate whose conjugation maps one local pair onto another.

    Both pairs must be ordered (X-image, Z-image) pairs of distinct
    non-identity Paulis.  The third letter's image is forced, so the gate is
    the unique one of the six classes; current == target yields I.
    """
    for pair, role in ((current, "current"), (target, "target")):
        a, b = pair
        if a == Pauli.I or b == Pauli.I or a == b:
            raise ValueError(f"{role} pair {pair} is not an anticommuting non-identity pair")
    mapping = {current[0]: target[0], current[1]: target[1]}
    third_src = Pauli(current[0] ^ current[1])
    mapping[third_src] = Pauli(target[0] ^ target[1])
    return class_gate_for_perm((mapping[Pauli.X], mapping[Pauli.Z]))


# ---------------------------------------------------------------------------
# Result type


@dataclass(frozen=True)
class CompilationResult:
    """Compiled circuit plus the bookkeeping that certifies it."""

    circuit: Circuit
    frame: PauliProduct
    stats: Report
    verified: bool
    permutation: tuple[int, ...]
    gateset: str
    frame_mode: str

    def metadata(self, source: Circuit) -> dict:
        return {
            "input_counts": gate_counts(source),
            "output_counts": self.stats.counts,
            "depth_in": depth(source),
            "depth_out": self.stats.depth,
            "frame": str(self.frame),
            "permutation": list(self.permutation),
            "verified": self.verified,
            "gateset": self.gateset,
        }


# ---------------------------------------------------------------------------
# Entangler-class check


def _crosses_class(source: Circuit, gs: GateSet, may_cross: bool) -> tuple[bool, int]:
    """Whether the sweep must run in the swap-insertion mode, and the
    source's two-qubit gate count.

    Raises :class:`CompileError` for a source the entry point cannot compile.
    Unless ``may_cross``, it names the first source entangler whose class
    differs from the native entangler's; with ``may_cross``, the source's
    entanglers must be all CX-like or all iSWAP-like.
    """
    native = gs.entangler
    counts = Counter(map(_gate, chain.from_iterable(source.layers)))
    gates = [g for g in counts if g.arity == 2]
    entanglers = sum(counts[g] for g in gates)
    if may_cross:
        classes = {gate.entangler_class for gate in gates}
        if "swap_like" in classes or "none" in classes:
            raise CompileError("source entanglers must be cx-like or iswap-like")
        if len(classes) > 1:
            raise CompileError("mixed-class sources are not supported")
        return bool(classes - {native.entangler_class}), entanglers
    for gate in gates:
        cls = gate.entangler_class
        if cls == "swap_like":
            raise CompileError(
                f"{gate.name} is a swap-like gate; swap compilation is not supported"
            )
        if cls != native.entangler_class:
            raise CompileError(
                f"source entangler {gate.name} is {cls} but the "
                f"{gs.name} gateset entangler {native.name} is "
                f"{native.entangler_class}; use the iswap heuristic mode"
            )
    return False, entanglers


# ---------------------------------------------------------------------------
# Layer builder


class _LayerBuilder:
    """Accumulates output layers, packing single-qubit basis changes greedily.

    A basis change destined to sit before the next entangler layer merges
    into the earliest existing single-qubit layer after the wire's previous
    gate, so independent fixes share layers and depth stays low.  Basis
    changes are held as CLASS_GATES indices, ``{wire: index}`` per
    single-qubit layer, and written out as native words at the end.
    """

    def __init__(self, n: int, words: Sequence[tuple[GateDef, ...]]):
        self.n = n
        self.words = words  # native word of each CLASS_GATES index
        self.layers: list[list[Instruction] | dict[int, int]] = []
        self.wire_last = [-1] * n
        self.single_layers: list[int] = []  # ascending indices of single-qubit layers

    def place_single(self, wire: int, k: int) -> None:
        if not k:  # the identity class
            return
        # No layer after wire_last[wire] touches the wire, so the first
        # single-qubit layer there takes the gate.
        pos = bisect_left(self.single_layers, self.wire_last[wire] + 1)
        if pos < len(self.single_layers):
            idx = self.single_layers[pos]
            self.layers[idx][wire] = k
        else:
            idx = len(self.layers)
            self.layers.append({wire: k})
            self.single_layers.append(idx)
        self.wire_last[wire] = idx

    def place_layer(self, insts: list[Instruction]) -> None:
        idx = len(self.layers)
        self.layers.append(insts)
        for inst in insts:
            for q in inst.qubits:
                self.wire_last[q] = idx

    def circuit(self) -> Circuit:
        layers: list[list[Instruction]] = []
        for layer in self.layers:
            if isinstance(layer, list):
                layers.append(layer)
                continue
            words = [(q, self.words[layer[q]]) for q in sorted(layer)]  # as _circuit sorts
            for step in range(max(len(word) for _, word in words)):
                layers.append([_instruction(word[step], (q,))
                               for q, word in words if step < len(word)])
        return _circuit(self.n, layers)


# ---------------------------------------------------------------------------
# The sweep (exact, source-instantaneous reference)


def _axis_letter(gate: GateDef, role: int) -> Pauli:
    letter = gate.one_local_letter(role)
    if letter is None:
        raise CompileError(
            f"{gate.name} has no protected letter on wire {role}; "
            "cannot constrain propagation through it"
        )
    return letter


def _transfer_perms(source_gate: GateDef, out_bits: Sequence[int], ua: int, ub: int):
    """Per-wire letter permutations after a matched entangler pair.

    Computes m = out_bits o (ua (x) ub) o bits(source)^-1, ``out_bits`` being
    the working entangler's table, on the four generators and extracts the
    wire-local permutations.  Locality holds whenever the axis constraints
    were enforced beforehand.  Permutations are indices into ``PERMS``.
    """
    inv_src = source_gate.bits16_inv
    apply_a, apply_b = PERM_APPLY[ua], PERM_APPLY[ub]

    def run(key: int) -> int:
        k = inv_src[key]
        return out_bits[apply_a[k >> 2] << 2 | apply_b[k & 3]]

    xa, za, xb, zb = run(0b1000), run(0b0100), run(0b0010), run(0b0001)
    if (xa & 0b0011) or (za & 0b0011) or (xb & 0b1100) or (zb & 0b1100):
        raise AssertionError("entangler transfer produced a non-local dressing")
    return PERM_INDEX[xa >> 2, za >> 2], PERM_INDEX[xb, zb]


_UNDO = {p: PERM_INVERT[k] for k, p in enumerate(PERMS)}  # gate.perm -> inverse index


def _step_table(gs: GateSet, gate: GateDef, virtual_swap: bool) -> tuple:
    """The sweep's step through a source gate, for every state of its wires.

    A single-qubit gate's entry ``u`` is the wire's permutation after it.  An
    entangler's entry ``6 * ua + ub`` is ``(fix_a, fix_b, ua', ub')``: the
    CLASS_GATES index inserted on each wire before it (0 for none), then the
    pair's permutations after the working entangler.  An entangler's table
    depends only on the gateset, the mode and the gate's ``bits16``, so it is
    derived on first use and kept on the gateset under those.
    """
    if gate.arity == 1:
        return tuple(row[_UNDO[gate.perm]] for row in PERM_COMPOSE)
    key = (virtual_swap, gate.bits16)
    table = gs._step_tables.get(key)
    if table is None:
        native = gs.entangler
        working_bits = native.bits16
        if virtual_swap:
            working_bits = tuple((t & 3) << 2 | t >> 2 for t in working_bits)
        fixes = []  # per wire, the class inserted in each of the six states
        for role in (0, 1):
            have, want = _axis_letter(gate, role), _axis_letter(native, role)
            fixes.append([0 if row[have] == want else gs._insertions[row[have], want]
                          for row in PERM_APPLY])
        table = gs._step_tables[key] = tuple(
            (fa, fb, *_transfer_perms(gate, working_bits,
                                      PERM_COMPOSE[fa][ua], PERM_COMPOSE[fb][ub]))
            for ua, fa in enumerate(fixes[0]) for ub, fb in enumerate(fixes[1])
        )
    return table


def _sweep(
    source: Circuit, gs: GateSet, virtual_swap: bool
) -> tuple[Circuit, tuple[int, ...]]:
    """The native output circuit and the wire permutation, in one walk.

    Inserts a basis change before an entangler wherever a wire's letter
    permutation does not carry the source gate's protected letter onto the
    native gate's, then appends to each wire the basis change undoing the
    permutation left on it.  With ``virtual_swap`` the working entangler is
    the native followed by a SWAP: the native's table with its output wires
    exchanged, and the native's one-local letters.  No SWAP is emitted; the
    pair's output labels are exchanged instead.  The permutation sends each
    source wire to its output wire; it is the identity otherwise.  Each gate
    is one lookup in its step table (:func:`_step_table`); the pairs in a
    layer are disjoint, so the layer is walked once.
    """
    n = source.n
    native = gs.entangler
    steps: dict[GateDef, tuple] = {}  # gate -> step table, for this compile

    u = [0] * n  # indexed by source wire; 0 is the identity permutation
    label = list(range(n))  # source wire -> output wire
    out = _LayerBuilder(n, [word for word, _ in gs._class_words])
    place = out.place_single
    for layer in source.layers:
        natives = []
        for inst in layer:
            gate = inst.gate
            step = steps.get(gate) or steps.setdefault(gate, _step_table(gs, gate, virtual_swap))
            if gate.arity == 1:
                q = inst.qubits[0]
                u[q] = step[u[q]]
                continue
            a, b = inst.qubits
            fix_a, fix_b, u[a], u[b] = step[6 * u[a] + u[b]]
            la, lb = label[a], label[b]
            if fix_a:
                place(la, fix_a)
            if fix_b:
                place(lb, fix_b)
            natives.append(_instruction(native, (la, lb)))
            if virtual_swap:
                label[a], label[b] = lb, la
        if natives:
            out.place_layer(natives)
    # Conjugation fix: each wire is now off from the source by u alone.
    for wire, k in enumerate(u):
        place(label[wire], PERM_INVERT[k])
    return out.circuit(), tuple(label)


# ---------------------------------------------------------------------------
# Verification and frame extraction


def extract_frame(compiled: Circuit, source: Circuit) -> PauliProduct:
    """Verify the compiled circuit against the source and read off the frame.

    Raises :class:`VerificationError` unless the two agree up to signs; its
    message names the first generator whose images differ and shows both.
    The returned frame, appended as a final Pauli layer, turns agreement up
    to signs into exact equality.
    """
    return _certify(compiled, source, tuple(range(source.n)))


def _certify(
    compiled: Circuit, source: Circuit, permutation: tuple[int, ...]
) -> PauliProduct:
    """The frame of the compiled circuit against the source.

    Raises :class:`VerificationError` unless the compiled circuit is the
    source relabelled by ``permutation`` up to a Pauli frame.  Only then are
    the two circuits simulated apart, to name the first generator whose
    images differ.
    """
    cert = tb.certify(compiled, source)
    if cert is None or cert[0] != permutation:
        target = tb.from_circuit(source).relabel_wires(permutation)
        raise VerificationError(
            "compiled circuit does not match the target up to signs: "
            + tb.describe_difference(tb.from_circuit(compiled), target,
                                     "the compiled circuit", "the target")
        )
    return cert[1]


# ---------------------------------------------------------------------------
# Full pipelines


def _frame_layer(frame: PauliProduct) -> list[Instruction]:
    """One Pauli gate per term of the frame, in qubit order: linear in n."""
    gate = {letter: builtin(letter) for letter in "XYZ"}
    return [_instruction(gate[letter], (q,)) for q, letter in terms(frame)]


def _compile(
    source: Circuit, gs: GateSet, frame_mode: str, may_cross: bool
) -> CompilationResult:
    """The one pipeline behind both entry points; every result is verified."""
    if frame_mode not in FRAME_MODES:
        raise ValueError(f"frame_mode must be one of {FRAME_MODES}")
    virtual_swap, entanglers = _crosses_class(source, gs, may_cross)
    final, permutation = _sweep(source, gs, virtual_swap)
    frame = _certify(final, source, permutation)
    if frame_mode == "fold":
        # The output is the frame after the relabelled source, so the folded
        # one is exact when the layer alone certifies as the frame.
        layer, n = _frame_layer(frame), final.n
        if tb.certify(_circuit(n, (layer,)), _circuit(n, ())) != (tuple(range(n)), frame):
            raise VerificationError("frame folding did not produce exact equality")
        if layer:
            final = _circuit(n, final.layers + (layer,))
    elif frame_mode == "none":
        if not frame.is_identity():
            raise CompileError(
                f"frame mode 'none' but the compilation needs frame {frame}"
            )
    stats = report(final)
    if stats.two_qubit_count != entanglers:
        raise VerificationError("two-qubit count was not preserved")
    return CompilationResult(
        circuit=final,
        frame=frame,
        stats=stats,
        verified=True,
        permutation=permutation,
        gateset=gs.name,
        frame_mode=frame_mode,
    )


def compile_circuit(
    source: Circuit,
    gs: GateSet,
    *,
    frame_mode: str = "report",
) -> CompilationResult:
    """Compile a same-class source circuit onto the gateset.

    The output contains only gateset gates (plus a final Pauli layer when
    ``frame_mode="fold"``), preserves the two-qubit count and pairing exactly,
    and is certified against the source by ``certify``; a failure raises.
    """
    return _compile(source, gs, frame_mode, False)


def compile_with_iswap_heuristic(
    source: Circuit,
    gs: GateSet,
    *,
    frame_mode: str = "report",
) -> CompilationResult:
    """Cross-class compilation via virtual SWAP insertion.

    A SWAP after each native entangler makes the pair match the source's
    entangler class.  The standard pipeline runs against the native's table
    with its output wires exchanged, but emits only the native entangler and
    relabels the pair's later gates in place of the SWAP.  The result
    verifies against the target up to signs and the wire relabelling it
    carries.  Same-class sources compile as in :func:`compile_circuit`.
    """
    return _compile(source, gs, frame_mode, True)
