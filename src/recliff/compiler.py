"""Retarget unitary stabilizer circuits onto a native gateset.

The pipeline replaces every source entangler with the native entangler on the
same qubit pair (the skeleton; the two-qubit count is already forced, so this
is the minimal starting point), then repairs the skeleton in three stages:

1.  Propagation.  Walk the matched circuits once, tracking for each wire the
    Pauli-letter permutation that relates the source's instantaneous
    conjugation to the working circuit's.  A two-qubit Clifford leaves one
    input letter per wire un-spread (Z on a CX control, X on its target, X on
    both wires of the XX interaction, and so on); the wire's permutation must
    carry the source gate's protected letter onto the native gate's.  Where it
    does not, a basis-change gate inserted immediately before the entangler
    repairs it.  The constraint is per-wire separable, so one sweep in time
    order fixes every generator's propagation at once.  The sweep emits the
    output circuit directly: in the swap-insertion mode it exchanges the two
    wires' output labels after each native entangler instead of emitting a
    SWAP, so later gates land on the relabelled wires.
2.  Conjugation.  After the sweep each wire is off from the target by a pure
    letter permutation, the sweep's final letter map for that wire; one
    basis-change gate appended per wire removes it.  Single-qubit layers
    never end up adjacent, so nothing needs fusing.
3.  Frame.  Basis-change gates are rewritten over the gateset's single-qubit
    natives (their residual Paulis are dropped), and the remaining
    per-generator sign differences are solved into a single Pauli correction,
    reported as the frame or optionally folded in as a final Pauli layer.

Both entry points run one pipeline.  Every compilation is verified against
the full tableau of the source (relabelled by the wire permutation in the
swap-insertion mode); a failed check raises, it is never reported silently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pauli import Pauli, PauliProduct, support
from . import tableau as tb
from .tableau import Tableau, solve_frame
from .circuit import Circuit, Instruction, depth, gate_counts, two_qubit_count
from .gates import (
    CLASS_GATE_ORDER,
    GateDef,
    GateSet,
    PERM_IDENTITY,
    builtin,
    class_gate_for_perm,
    perm_apply,
    perm_compose,
    perm_invert,
)
from .reporting import Report, report


class CompileError(RuntimeError):
    """The source cannot be compiled as requested."""


class VerificationError(RuntimeError):
    """A compiled circuit failed its tableau equivalence check."""


FRAME_MODES = ("report", "fold", "none")


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


def _choose_insertion(current: Pauli, wanted: Pauli, gs: GateSet) -> GateDef:
    """Cheapest class gate whose letter map sends ``current`` to ``wanted``.

    Cost is the length of the gate's full native identity including its
    residual Pauli; ties resolve by the fixed precedence I < H_XY < H_YZ < H
    < C_XYZ < C_ZYX.
    """
    candidates = []
    for idx, name in enumerate(CLASS_GATE_ORDER):
        g = builtin(name)
        if perm_apply(g.perm, current) == wanted:
            candidates.append((gs.insertion_cost(g), idx, g))
    candidates.sort(key=lambda t: (t[0], t[1]))
    return candidates[0][2]


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
    unavailable_pairs: tuple[tuple[int, int], ...] = ()

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
# Stage 1: skeleton


def initial_condition(source: Circuit, gs: GateSet) -> Circuit:
    """Native-entangler skeleton: one native entangler per source entangler.

    Qubit pairs, their order (roles) and the entangler layer structure are
    preserved; single-qubit gates are dropped.  The source's entanglers must
    share the native entangler's class; crossing classes needs the
    swap-insertion mode.
    """
    _check_entangler_class(source, gs)
    native = gs.entangler
    layers = []
    for layer in source.layers:
        kept = tuple(Instruction(native, inst.qubits) for inst in layer if inst.gate.arity == 2)
        if kept:
            layers.append(kept)
    return Circuit(source.n, tuple(layers))


def _check_entangler_class(source: Circuit, gs: GateSet) -> None:
    """Raise :class:`CompileError` at the first source entangler whose class
    differs from the native entangler's."""
    native = gs.entangler
    for inst in source.instructions():
        if inst.gate.arity == 1:
            continue
        cls = inst.gate.entangler_class
        if cls == "swap_like":
            raise CompileError(
                f"{inst.gate.name} is a swap-like gate; "
                "swap compilation is not supported"
            )
        if cls != native.entangler_class:
            raise CompileError(
                f"source entangler {inst.gate.name} is {cls} but the "
                f"{gs.name} gateset entangler {native.name} is "
                f"{native.entangler_class}; use the iswap heuristic mode"
            )


# ---------------------------------------------------------------------------
# Layer builder shared by the sweep and the conjugation fix


class _LayerBuilder:
    """Accumulates output layers, packing single-qubit gates greedily.

    A single-qubit gate destined to sit before the next entangler layer merges
    into the earliest existing single-qubit layer after the wire's previous
    gate, so independent fixes share layers and depth stays low.
    """

    def __init__(self, n: int):
        self.n = n
        self.layers: list[list[Instruction]] = []
        self.wire_last = [-1] * n
        self.single_layers: list[int] = []  # ascending indices of single-only layers

    def place_single(self, wire: int, gate: GateDef) -> None:
        if gate.name == "I":
            return
        # No layer after wire_last[wire] touches the wire, so the first
        # single-only layer there takes the gate.
        pos = bisect_left(self.single_layers, self.wire_last[wire] + 1)
        if pos < len(self.single_layers):
            idx = self.single_layers[pos]
            self.layers[idx].append(Instruction(gate, (wire,)))
        else:
            idx = len(self.layers)
            self.layers.append([Instruction(gate, (wire,))])
            self.single_layers.append(idx)
        self.wire_last[wire] = idx

    def place_layer(self, insts: Sequence[Instruction]) -> None:
        idx = len(self.layers)
        self.layers.append(list(insts))
        if all(i.gate.arity == 1 for i in insts):
            self.single_layers.append(idx)
        for inst in insts:
            for q in inst.qubits:
                self.wire_last[q] = idx

    def circuit(self) -> Circuit:
        return Circuit(self.n, tuple(tuple(l) for l in self.layers))


# ---------------------------------------------------------------------------
# Stage 2: propagation sweep (exact, source-instantaneous reference)


def _axis_letter(gate: GateDef, role: int) -> Pauli:
    letter = gate.one_local_letter(role)
    if letter is None:
        raise CompileError(
            f"{gate.name} has no protected letter on wire {role}; "
            "cannot constrain propagation through it"
        )
    return letter


def _transfer_perms(
    source_gate: GateDef, working_gate: GateDef, ua, ub
):
    """Per-wire letter permutations after a matched entangler pair.

    Computes m = bits(working) o (ua (x) ub) o bits(source)^-1 on the four
    generators and extracts the wire-local permutations.  Locality holds
    whenever the axis constraints were enforced beforehand.
    """
    inv_src = source_gate.bits16_inv
    out_bits = working_gate.bits16

    def run(key: int) -> int:
        k = inv_src[key]
        a_code = ((k >> 3) & 1) * 2 + ((k >> 2) & 1)
        b_code = ((k >> 1) & 1) * 2 + (k & 1)
        a_code = perm_apply(ua, a_code)
        b_code = perm_apply(ub, b_code)
        k = ((a_code >> 1) << 3) | ((a_code & 1) << 2) | ((b_code >> 1) << 1) | (b_code & 1)
        return out_bits[k]

    xa, za, xb, zb = run(0b1000), run(0b0100), run(0b0010), run(0b0001)
    if (xa & 0b0011) or (za & 0b0011) or (xb & 0b1100) or (zb & 0b1100):
        raise AssertionError("entangler transfer produced a non-local dressing")
    ua_new = (((xa >> 3) << 1) | (xa >> 2) & 1, ((za >> 3) << 1) | (za >> 2) & 1)
    ub_new = (((xb >> 1) << 1) | (xb & 1), ((zb >> 1) << 1) | (zb & 1))
    return ua_new, ub_new


def fix_propagation(
    source: Circuit,
    gs: GateSet,
    *,
    virtual_swap: bool = False,
) -> tuple[Circuit, list, tuple[int, ...]]:
    """Build the propagation-fixed circuit, its per-wire letter maps and the
    wire permutation.

    The sweep tracks, per wire, the letter permutation sending the source's
    instantaneous conjugation to the working circuit's, and inserts a
    basis change before an entangler wherever the permutation does not carry
    the source gate's protected letter onto the native gate's.  The returned
    maps are those permutations after the last layer, indexed by output wire.

    With ``virtual_swap`` the working entangler is the native entangler
    followed by a SWAP on the same pair.  No SWAP is emitted: the sweep
    exchanges the pair's output labels instead, so later gates land on the
    relabelled wires.  The permutation sends each source wire to its output
    wire; it is the identity otherwise.
    """
    n = source.n
    native = gs.entangler
    if virtual_swap:
        t = tb.identity(2)
        t = tb.append_gate(t, native, (0, 1))
        t = tb.append_gate(t, builtin("SWAP"), (0, 1))
        working_gate = GateDef(f"{native.name}+SWAP", 2, t)
    else:
        working_gate = native

    u = [PERM_IDENTITY] * n  # indexed by source wire
    label = list(range(n))  # source wire -> output wire
    out = _LayerBuilder(n)
    for layer in source.layers:
        entanglers = [inst for inst in layer if inst.gate.arity == 2]
        for inst in layer:
            if inst.gate.arity == 1:
                q = inst.qubits[0]
                u[q] = perm_compose(u[q], perm_invert(inst.gate.perm))
        if not entanglers:
            continue
        for inst in entanglers:
            for role, wire in enumerate(inst.qubits):
                want = _axis_letter(working_gate, role)
                have = perm_apply(u[wire], _axis_letter(inst.gate, role))
                if have != want:
                    fix = _choose_insertion(have, want, gs)
                    out.place_single(label[wire], fix)
                    u[wire] = perm_compose(fix.perm, u[wire])
        out.place_layer([
            Instruction(native, (label[inst.qubits[0]], label[inst.qubits[1]]))
            for inst in entanglers
        ])
        for inst in entanglers:
            a, b = inst.qubits
            u[a], u[b] = _transfer_perms(inst.gate, working_gate, u[a], u[b])
            if virtual_swap:
                label[a], label[b] = label[b], label[a]
    maps = [PERM_IDENTITY] * n
    for wire, o in enumerate(label):
        maps[o] = u[wire]
    return out.circuit(), maps, tuple(label)


# ---------------------------------------------------------------------------
# Stage 3: conjugation fix


def fix_conjugation(working: Circuit, maps: Sequence) -> Circuit:
    """Append one basis-change gate per wire undoing its final letter map.

    ``maps`` are the per-wire permutations returned by
    :func:`fix_propagation`; after the sweep each wire differs from the
    source only by that permutation.
    """
    out = _LayerBuilder(working.n)
    for layer in working.layers:
        out.place_layer(layer)
    for wire, perm in enumerate(maps):
        out.place_single(wire, class_gate_for_perm(perm_invert(perm)))
    return out.circuit()


# ---------------------------------------------------------------------------
# Stage 4: native expansion and frame extraction


def _expand_classes(c: Circuit, gs: GateSet) -> Circuit:
    """Rewrite single-qubit gates over the native set, dropping residual Paulis."""
    layers: list[tuple[Instruction, ...]] = []
    for layer in c.layers:
        if any(inst.gate.arity == 2 for inst in layer):
            layers.append(layer)
            continue
        words: dict[int, tuple[GateDef, ...]] = {}
        for inst in layer:
            word, _residual = gs.decompose(inst.gate)
            if word:
                words[inst.qubits[0]] = word
        width = max((len(w) for w in words.values()), default=0)
        for k in range(width):
            sub = [
                Instruction(word[k], (q,))
                for q, word in sorted(words.items())
                if k < len(word)
            ]
            layers.append(tuple(sub))
    return Circuit(c.n, tuple(layers))


def extract_frame(compiled: Circuit, target: Tableau) -> PauliProduct:
    """Verify the compiled circuit and solve the Pauli frame against the target.

    Raises :class:`VerificationError` unless the two tableaux agree letter
    for letter; its message names the first generator whose images differ
    and shows both.  The returned frame, appended as a final Pauli layer, turns
    agreement up to signs into exact equality.
    """
    t = tb.from_circuit(compiled)
    ok, flips = tb.equal_up_to_sign(t, target)
    if not ok:
        raise VerificationError(
            "compiled circuit does not match the target up to signs: "
            + tb.describe_difference(t, target, "the compiled circuit", "the target")
        )
    return solve_frame(t, flips)


def _frame_layer(frame: PauliProduct) -> tuple[Instruction, ...]:
    return tuple(
        Instruction(builtin(frame.local(q).letter), (q,)) for q in support(frame)
    )


# ---------------------------------------------------------------------------
# Full pipelines


def _compile(
    source: Circuit,
    gs: GateSet,
    frame_mode: str,
    virtual_swap: bool,
    available_pairs: Iterable[tuple[int, int]] | None = None,
) -> CompilationResult:
    """The one pipeline behind both entry points; every result is verified."""
    if frame_mode not in FRAME_MODES:
        raise ValueError(f"frame_mode must be one of {FRAME_MODES}")
    target = tb.from_circuit(source)
    if not virtual_swap:
        _check_entangler_class(source, gs)
    working, maps, permutation = fix_propagation(source, gs, virtual_swap=virtual_swap)
    final = _expand_classes(fix_conjugation(working, maps), gs)
    if virtual_swap:
        target = target.relabel_wires(permutation)

    if two_qubit_count(final) != two_qubit_count(source):
        raise VerificationError("two-qubit count was not preserved")
    frame = extract_frame(final, target)
    if frame_mode == "fold":
        if not frame.is_identity():
            final = Circuit(final.n, final.layers + (_frame_layer(frame),))
        if tb.from_circuit(final) != target:
            raise VerificationError("frame folding did not produce exact equality")
    elif frame_mode == "none":
        if not frame.is_identity():
            raise CompileError(
                f"frame mode 'none' but the compilation needs frame {frame}"
            )
    flagged: list[tuple[int, int]] = []
    if available_pairs is not None:
        allowed = {tuple(sorted(p)) for p in available_pairs}
        for inst in final.instructions():
            if inst.gate.arity == 2:
                pair = tuple(sorted(inst.qubits))
                if pair not in allowed and pair not in flagged:
                    flagged.append(pair)
    return CompilationResult(
        circuit=final,
        frame=frame,
        stats=report(final),
        verified=True,
        permutation=permutation,
        gateset=gs.name,
        frame_mode=frame_mode,
        unavailable_pairs=tuple(flagged),
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
    and is verified by rebuilding its tableau; verification failure raises.
    """
    return _compile(source, gs, frame_mode, False)


def compile_with_iswap_heuristic(
    source: Circuit,
    gs: GateSet,
    *,
    frame_mode: str = "report",
    available_pairs: Iterable[tuple[int, int]] | None = None,
) -> CompilationResult:
    """Cross-class compilation via virtual SWAP insertion.

    A SWAP after each native entangler makes the composite match the source's
    entangler class.  The standard pipeline runs against the composites, but
    emits only the native entangler and relabels the pair's later gates in
    place of the SWAP.  The result verifies against the target up to signs
    and the accumulated wire relabelling, which the result carries.  Same-class
    sources compile as in :func:`compile_circuit`.  Entangler pairs outside
    ``available_pairs``, when given, are listed in ``unavailable_pairs``.
    """
    native = gs.entangler
    source_classes = {
        inst.gate.entangler_class
        for inst in source.instructions()
        if inst.gate.arity == 2
    }
    if "swap_like" in source_classes or "none" in source_classes:
        raise CompileError("source entanglers must be cx-like or iswap-like")
    opposite = "cx_like" if native.entangler_class == "iswap_like" else "iswap_like"
    crossing = bool(source_classes) and source_classes != {native.entangler_class}
    if crossing and source_classes != {opposite}:
        raise CompileError("mixed-class sources are not supported")
    return _compile(source, gs, frame_mode, crossing, available_pairs)
