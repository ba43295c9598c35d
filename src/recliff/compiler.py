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
    SWAP, so later gates land on the relabelled wires.  Letter
    permutations are indices into precomputed apply/compose/invert tables
    over the six of them, and what depends only on the gateset (insertion
    choices, the native+SWAP composite) is derived once and kept on it.
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
A compile simulates two tableaux, the source's and the output's; folding the
frame applies its Pauli gates to the output's tableau and checks it again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pauli import Pauli, PauliProduct, support
from . import tableau as tb
from .tableau import Tableau, solve_frame
from .circuit import (
    Circuit, Instruction, _circuit, _instruction, depth, gate_counts, two_qubit_count,
)
from .gates import (
    CLASS_GATES,
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
        layers.append([_instruction(native, inst.qubits) for inst in layer
                       if inst.gate.arity == 2])
    return _circuit(source.n, layers)


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
            self.layers[idx].append(_instruction(gate, (wire,)))
        else:
            idx = len(self.layers)
            self.layers.append([_instruction(gate, (wire,))])
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
        return _circuit(self.n, self.layers)


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


def _transfer_perms(source_gate: GateDef, working_gate: GateDef, ua: int, ub: int):
    """Per-wire letter permutations after a matched entangler pair.

    Computes m = bits(working) o (ua (x) ub) o bits(source)^-1 on the four
    generators and extracts the wire-local permutations.  Locality holds
    whenever the axis constraints were enforced beforehand.  Permutations
    are indices into ``PERMS``.
    """
    inv_src = source_gate.bits16_inv
    out_bits = working_gate.bits16
    apply_a, apply_b = PERM_APPLY[ua], PERM_APPLY[ub]

    def run(key: int) -> int:
        k = inv_src[key]
        return out_bits[apply_a[k >> 2] << 2 | apply_b[k & 3]]

    xa, za, xb, zb = run(0b1000), run(0b0100), run(0b0010), run(0b0001)
    if (xa & 0b0011) or (za & 0b0011) or (xb & 0b1100) or (zb & 0b1100):
        raise AssertionError("entangler transfer produced a non-local dressing")
    return PERM_INDEX[xa >> 2, za >> 2], PERM_INDEX[xb, zb]


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
    working_gate = gs._swap_composite if virtual_swap else native
    want_a, want_b = _axis_letter(working_gate, 0), _axis_letter(working_gate, 1)
    insertions = gs._insertions
    undo = {p: PERM_INVERT[k] for p, k in PERM_INDEX.items()}  # gate.perm -> inverse index
    axes: dict[GateDef, tuple[Pauli, Pauli]] = {}
    transfers: dict[tuple, tuple[int, int]] = {}

    u = [0] * n  # indexed by source wire; 0 is the identity permutation
    label = list(range(n))  # source wire -> output wire
    out = _LayerBuilder(n)
    for layer in source.layers:
        entanglers = []
        for inst in layer:
            if inst.gate.arity == 1:
                q = inst.qubits[0]
                u[q] = PERM_COMPOSE[u[q]][undo[inst.gate.perm]]
            else:
                entanglers.append(inst)
        if not entanglers:
            continue
        for inst in entanglers:
            gate = inst.gate
            if gate not in axes:
                axes[gate] = (_axis_letter(gate, 0), _axis_letter(gate, 1))
            for wire, have_letter, want in zip(inst.qubits, axes[gate], (want_a, want_b)):
                have = PERM_APPLY[u[wire]][have_letter]
                if have != want:
                    fix = insertions[have, want]
                    out.place_single(label[wire], CLASS_GATES[fix])
                    u[wire] = PERM_COMPOSE[fix][u[wire]]
        out.place_layer([
            _instruction(native, (label[inst.qubits[0]], label[inst.qubits[1]]))
            for inst in entanglers
        ])
        for inst in entanglers:
            a, b = inst.qubits
            key = (inst.gate, u[a], u[b])
            if key not in transfers:
                transfers[key] = _transfer_perms(inst.gate, working_gate, u[a], u[b])
            u[a], u[b] = transfers[key]
            if virtual_swap:
                label[a], label[b] = label[b], label[a]
    maps = [PERMS[0]] * n
    for wire, o in enumerate(label):
        maps[o] = PERMS[u[wire]]
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
        out.place_single(wire, CLASS_GATES[PERM_INVERT[PERM_INDEX[perm]]])
    return out.circuit()


# ---------------------------------------------------------------------------
# Stage 4: native expansion and frame extraction


def _expand_classes(c: Circuit, gs: GateSet) -> Circuit:
    """Rewrite single-qubit gates over the native set, dropping residual Paulis."""
    layers: list[Sequence[Instruction]] = []
    word_of: dict[GateDef, tuple[GateDef, ...]] = {}
    for layer in c.layers:
        if any(inst.gate.arity == 2 for inst in layer):
            layers.append(layer)
            continue
        words: dict[int, tuple[GateDef, ...]] = {}
        for inst in layer:
            gate = inst.gate
            if gate not in word_of:
                word_of[gate] = gs.decompose(gate)[0]
            if word_of[gate]:
                words[inst.qubits[0]] = word_of[gate]
        width = max((len(w) for w in words.values()), default=0)
        for k in range(width):
            layers.append([
                _instruction(word[k], (q,))
                for q, word in sorted(words.items())
                if k < len(word)
            ])
    return _circuit(c.n, layers)


def extract_frame(compiled: Circuit, target: Tableau) -> PauliProduct:
    """Verify the compiled circuit and solve the Pauli frame against the target.

    Raises :class:`VerificationError` unless the two tableaux agree letter
    for letter; its message names the first generator whose images differ
    and shows both.  The returned frame, appended as a final Pauli layer, turns
    agreement up to signs into exact equality.
    """
    return _verify(compiled, target)[1]


def _verify(compiled: Circuit, target: Tableau) -> tuple[Tableau, PauliProduct]:
    """:func:`extract_frame`, also returning the compiled circuit's tableau."""
    t = tb.from_circuit(compiled)
    ok, flips = tb.equal_up_to_sign(t, target)
    if not ok:
        raise VerificationError(
            "compiled circuit does not match the target up to signs: "
            + tb.describe_difference(t, target, "the compiled circuit", "the target")
        )
    return t, solve_frame(t, flips)


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
    verified, frame = _verify(final, target)
    if frame_mode == "fold":
        # The folded layer's tableau is the verified one with the frame's
        # Pauli gates applied, so the whole output is not simulated again.
        layer = [_instruction(builtin(frame.local(q).letter), (q,)) for q in support(frame)]
        for inst in layer:
            verified._apply_gate(inst.gate, inst.qubits)
        if layer:
            final = _circuit(final.n, final.layers + (layer,))
        if verified != target:
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
