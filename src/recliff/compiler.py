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
    order fixes every generator's propagation at once.
2.  Conjugation.  After the sweep each wire is off from the target by a pure
    letter permutation; one basis-change gate appended per wire removes it.
3.  Frame.  Basis-change gates are rewritten over the gateset's single-qubit
    natives (their residual Paulis are dropped), and the remaining
    per-generator sign differences are solved into a single Pauli correction,
    reported as the frame or optionally folded in as a final Pauli layer.

Every compilation is verified against the full tableau of the source; a
failed check raises, it is never reported silently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .pauli import Pauli, PauliProduct, solve_frame, support
from . import tableau as tb
from .tableau import Tableau
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


class PropagationError(CompileError):
    """No insertion assignment reproduces the target propagation."""


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


def conjugation_table() -> dict[tuple[tuple[Pauli, Pauli], tuple[Pauli, Pauli]], GateDef]:
    """All 36 lookup cells, keyed by (current pair, target pair)."""
    pairs = [
        (a, b)
        for a in (Pauli.X, Pauli.Y, Pauli.Z)
        for b in (Pauli.X, Pauli.Y, Pauli.Z)
        if a != b
    ]
    return {(c, t): conjugation_lookup(c, t) for c in pairs for t in pairs}


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
            "output_counts": gate_counts(self.circuit),
            "depth_in": depth(source),
            "depth_out": depth(self.circuit),
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
    native = gs.entangler
    layers: list[list[Instruction]] = []
    for layer in source.layers:
        kept = []
        for inst in layer:
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
            kept.append(Instruction(native, inst.qubits))
        if kept:
            layers.append(kept)
    return Circuit(source.n, tuple(tuple(l) for l in layers))


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


def _propagation_sweep(
    source: Circuit,
    gs: GateSet,
    *,
    virtual_swap: bool = False,
) -> tuple[Circuit, list]:
    """Build the propagation-fixed circuit and the final per-wire letter maps.

    With ``virtual_swap`` the working entangler is the native entangler
    followed by a SWAP on the same pair; the SWAP instructions are emitted
    explicitly for later removal.
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

    u = [PERM_IDENTITY] * n
    out = _LayerBuilder(n)
    swap = builtin("SWAP")
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
                    out.place_single(wire, fix)
                    u[wire] = perm_compose(fix.perm, u[wire])
        out.place_layer([Instruction(native, inst.qubits) for inst in entanglers])
        if virtual_swap:
            out.place_layer([Instruction(swap, inst.qubits) for inst in entanglers])
        for inst in entanglers:
            a, b = inst.qubits
            u[a], u[b] = _transfer_perms(inst.gate, working_gate, u[a], u[b])
    return out.circuit(), u


# ---------------------------------------------------------------------------
# Stage 2 alternative: greedy walk against the final target propagation
# (used when only the target tableau is available)


def _greedy_insertions(
    working: Circuit, target: Tableau, gs: GateSet
) -> list[dict[int, GateDef]]:
    """Per-qubit greedy pass using the target's final supports as the guide.

    Exact for circuits where each qubit pair interacts at most once (the
    intended benchmark class).  On repeated interactions the final-support
    test can misfire, so the caller re-checks supports and falls back to a
    bounded search.  Returns, per layer, the class gate inserted just before
    it on each wire.
    """
    n = working.n
    native = gs.entangler
    insertions: list[dict[int, GateDef]] = [dict() for _ in working.layers]

    def walk_images(qubit: int):
        """Instantaneous images of X_q, Z_q through the amended circuit."""
        w_x = PauliProduct.single(n, qubit, Pauli.X)
        w_z = PauliProduct.single(n, qubit, Pauli.Z)
        for li, layer in enumerate(working.layers):
            for wire, gate in insertions[li].items():
                w_x = _apply_to_product(gate, (wire,), w_x)
                w_z = _apply_to_product(gate, (wire,), w_z)
            for inst in layer:
                if qubit in inst.qubits and inst.gate.arity == 2:
                    yield li, inst, w_x, w_z
                w_x = _apply_to_product(inst.gate, inst.qubits, w_x)
                w_z = _apply_to_product(inst.gate, inst.qubits, w_z)

    for q in range(n):
        tgt_x = support(target.image_x(q))
        tgt_z = support(target.image_z(q))
        restart = True
        while restart:
            restart = False
            for li, inst, w_x, w_z in walk_images(q):
                role = inst.qubits.index(q)
                other = inst.qubits[1 - role]
                cp = _axis_letter(native, role)
                need_x = other in tgt_x  # True: must anticommute (spread)
                need_z = other in tgt_z
                have_x = w_x.local(q)
                have_z = w_z.local(q)
                ok_x = (have_x != cp) if need_x else (have_x == cp)
                ok_z = (have_z != cp) if need_z else (have_z == cp)
                if ok_x and ok_z:
                    continue
                if not need_x and not need_z:
                    # Both images asked to commute through one entangler: no
                    # local pair satisfies that.  The final-support guide has
                    # misfired (repeated interaction); leave the slot for the
                    # fallback search.
                    continue
                choices = []
                want_xs = [p for p in (Pauli.X, Pauli.Y, Pauli.Z)
                           if (p != cp) == need_x]
                want_zs = [p for p in (Pauli.X, Pauli.Y, Pauli.Z)
                           if (p != cp) == need_z]
                for wx in want_xs:
                    for wz in want_zs:
                        if wx == wz:
                            continue
                        g = conjugation_lookup((have_x, have_z), (wx, wz))
                        idx = CLASS_GATE_ORDER.index(g.name)
                        choices.append((gs.insertion_cost(g), idx, g))
                choices.sort(key=lambda t: (t[0], t[1]))
                gate = choices[0][2]
                prev = insertions[li].get(q)
                if prev is not None:
                    combined = perm_compose(gate.perm, prev.perm)
                    gate = class_gate_for_perm(combined)
                insertions[li][q] = gate
                restart = True
                break
    return insertions


def _apply_to_product(gate: GateDef, qubits, p: PauliProduct) -> PauliProduct:
    """Conjugate one Pauli product through a gate via its local lookup."""
    lut = gate.lut
    if gate.arity == 1:
        (q,) = qubits
        key = 2 * ((p.x >> q) & 1) + ((p.z >> q) & 1)
        x = (p.x & ~(1 << q)) | (int(lut.out_bits[0][key]) << q)
        z = (p.z & ~(1 << q)) | (int(lut.out_bits[1][key]) << q)
        return PauliProduct(p.n, x, z, p.sign * int(lut.sign[key]))
    a, b = qubits
    key = (
        8 * ((p.x >> a) & 1)
        + 4 * ((p.z >> a) & 1)
        + 2 * ((p.x >> b) & 1)
        + ((p.z >> b) & 1)
    )
    mask = ~((1 << a) | (1 << b))
    x = (p.x & mask) | (int(lut.out_bits[0][key]) << a) | (int(lut.out_bits[2][key]) << b)
    z = (p.z & mask) | (int(lut.out_bits[1][key]) << a) | (int(lut.out_bits[3][key]) << b)
    return PauliProduct(p.n, x, z, p.sign * int(lut.sign[key]))


def _materialise(working: Circuit, insertions: list[dict[int, GateDef]]) -> Circuit:
    out = _LayerBuilder(working.n)
    for li, layer in enumerate(working.layers):
        for wire, gate in sorted(insertions[li].items()):
            out.place_single(wire, gate)
        out.place_layer(layer)
    return out.circuit()


def _support_mismatches(t1: Tableau, t2: Tableau) -> list[int]:
    """Generators whose image supports differ (letter pattern ignored)."""
    occ1 = (t1.letter_array() != 0)
    occ2 = (t2.letter_array() != 0)
    return [int(g) for g in np.nonzero((occ1 != occ2).any(axis=1))[0]]


def _fallback_search(
    working: Circuit,
    target: Tableau,
    gs: GateSet,
    insertions: list[dict[int, GateDef]],
) -> Circuit:
    """Bounded exhaustive repair over insertion slots of offending qubits."""
    n = working.n
    if n > 16:
        raise PropagationError(
            "greedy propagation failed and the circuit is too large for the "
            "bounded fallback search; compile from the source circuit instead"
        )
    classes = [builtin(name) for name in CLASS_GATE_ORDER]

    def evaluate(insertions) -> list[int]:
        cand = _materialise(working, insertions)
        return _support_mismatches(tb.from_circuit(cand), target)

    bad = evaluate(insertions)
    budget = 6 ** 8
    rounds = 0
    while bad:
        rounds += 1
        if rounds > 2 * n:
            raise PropagationError("fallback search is cycling between qubits")
        qubit = min(g // 2 for g in bad)
        slots = [
            li
            for li, layer in enumerate(working.layers)
            if any(qubit in inst.qubits and inst.gate.arity == 2 for inst in layer)
        ]
        if 6 ** len(slots) > budget:
            raise PropagationError("fallback search space exceeds the 6^8 cap")

        def dfs(i: int) -> bool:
            if i == len(slots):
                return not any(g // 2 == qubit for g in evaluate(insertions))
            for g in classes:
                if g.name == "I":
                    insertions[slots[i]].pop(qubit, None)
                else:
                    insertions[slots[i]][qubit] = g
                if dfs(i + 1):
                    return True
            insertions[slots[i]].pop(qubit, None)
            return False

        if not dfs(0):
            raise PropagationError(
                f"target unreachable under same-structure initial condition: "
                f"no insertion assignment fixes the propagation of qubit {qubit}"
            )
        new_bad = evaluate(insertions)
        if new_bad == bad:
            raise PropagationError("fallback search made no progress")
        bad = new_bad
    return _materialise(working, insertions)


def fix_propagation(
    working: Circuit,
    target: Tableau,
    gs: GateSet,
    *,
    source: Circuit | None = None,
) -> Circuit:
    """Insert basis changes so every generator image has the target's support.

    With ``source`` given (as :func:`compile_circuit` does), the walk tracks
    the source's instantaneous conjugation and is exact for all same-class
    circuits.  Without it, a greedy per-qubit pass guided by the target's
    final supports runs first, then a bounded exhaustive repair if any
    generator's support still mismatches.
    """
    if source is not None:
        _check_matching_skeleton(working, source, gs)
        fixed, _ = _propagation_sweep(source, gs)
        return fixed
    insertions = _greedy_insertions(working, target, gs)
    fixed = _materialise(working, insertions)
    if not _support_mismatches(tb.from_circuit(fixed), target):
        return fixed
    return _fallback_search(working, target, gs, insertions)


def _check_matching_skeleton(working: Circuit, source: Circuit, gs: GateSet) -> None:
    want = [
        inst.qubits for inst in initial_condition(source, gs).instructions()
    ]
    got = [
        inst.qubits for inst in working.instructions() if inst.gate.arity == 2
    ]
    if want != got:
        raise CompileError("working circuit does not match the source's skeleton")


# ---------------------------------------------------------------------------
# Stage 3: conjugation fix


def _wire_letter_maps(t_working: Tableau, t_target: Tableau) -> list:
    """Per-wire letter permutations sending working image letters to target's.

    A propagation-fixed circuit differs from the target by per-wire letter
    permutations, so for every wire the (working letter -> target letter)
    constraints collected over all generators are consistent and pin the
    permutation completely; anything else reports an upstream failure.
    """
    lw = t_working.letter_array()
    lt = t_target.letter_array()
    perms = []
    for wire in range(t_working.n):
        col_w = lw[:, wire]
        col_t = lt[:, wire]
        if ((col_w == 0) != (col_t == 0)).any():
            raise CompileError(
                f"wire {wire}: image supports disagree; propagation is not fixed"
            )
        mapping: dict[int, int] = {}
        for code in (1, 2, 3):
            hits = col_t[col_w == code]
            if hits.size == 0:
                continue
            vals = set(int(v) for v in hits)
            if len(vals) > 1:
                raise CompileError(
                    f"wire {wire}: images are not related by a single basis change"
                )
            mapping[code] = vals.pop()
        if len(mapping) < 2:
            raise CompileError(f"wire {wire}: underdetermined basis change")
        if len(mapping) == 2:
            (a, ma), (b, mb) = mapping.items()
            mapping[a ^ b] = ma ^ mb
        perms.append((mapping[Pauli.X], mapping[Pauli.Z]))
    return perms


def fix_conjugation(working: Circuit, target: Tableau) -> Circuit:
    """Append one basis-change gate per wire to align output conjugations."""
    t_working = tb.from_circuit(working)
    out = _LayerBuilder(working.n)
    for layer in working.layers:
        out.place_layer(layer)
    for wire, perm in enumerate(_wire_letter_maps(t_working, target)):
        gate = class_gate_for_perm(perm)
        if gate.name != "I":
            out.place_single(wire, gate)
    return out.circuit()


# ---------------------------------------------------------------------------
# Stage 4: native expansion and frame extraction


def _fuse_adjacent_singles(c: Circuit) -> Circuit:
    """Merge runs of single-qubit-only layers at the basis-change level.

    Residual sign differences are deliberately discarded; the frame solve
    afterwards absorbs them.  Only used inside the compile pipeline.
    """
    layers: list[tuple[Instruction, ...]] = []
    i = 0
    while i < len(c.layers):
        layer = c.layers[i]
        if any(inst.gate.arity == 2 for inst in layer):
            layers.append(layer)
            i += 1
            continue
        perms: dict[int, tuple] = {}
        while i < len(c.layers) and all(inst.gate.arity == 1 for inst in c.layers[i]):
            for inst in c.layers[i]:
                q = inst.qubits[0]
                perms[q] = perm_compose(inst.gate.perm, perms.get(q, PERM_IDENTITY))
            i += 1
        fused = []
        for q, perm in sorted(perms.items()):
            gate = class_gate_for_perm(perm)
            if gate.name != "I":
                fused.append(Instruction(gate, (q,)))
        if fused:
            layers.append(tuple(fused))
    return Circuit(c.n, tuple(layers))


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
    """Pauli product reconciling the compiled circuit's signs with the target.

    Requires letter-exact tableau agreement; the frame appended as a final
    Pauli layer yields exact equality.
    """
    t = tb.from_circuit(compiled)
    ok, flips = tb.equal_up_to_sign(t, target)
    if not ok:
        raise VerificationError(
            "compiled circuit does not match the target up to signs"
        )
    return solve_frame(t.images(), flips)


def _frame_layer(frame: PauliProduct) -> tuple[Instruction, ...]:
    return tuple(
        Instruction(builtin(frame.local(q).letter), (q,)) for q in support(frame)
    )


# ---------------------------------------------------------------------------
# Full pipelines


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
    if frame_mode not in FRAME_MODES:
        raise ValueError(f"frame_mode must be one of {FRAME_MODES}")
    target = tb.from_circuit(source)
    skeleton = initial_condition(source, gs)
    working = fix_propagation(skeleton, target, gs, source=source)
    working = fix_conjugation(working, target)
    expanded = _expand_classes(_fuse_adjacent_singles(working), gs)

    if two_qubit_count(expanded) != two_qubit_count(source):
        raise VerificationError("two-qubit count was not preserved")
    t_out = tb.from_circuit(expanded)
    ok, flips = tb.equal_up_to_sign(t_out, target)
    if not ok:
        raise VerificationError("compiled tableau differs from the target")
    frame = solve_frame(t_out.images(), flips)

    final = expanded
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
    return CompilationResult(
        circuit=final,
        frame=frame,
        stats=report(final),
        verified=True,
        permutation=tuple(range(source.n)),
        gateset=gs.name,
        frame_mode=frame_mode,
    )


def _remove_virtual_swaps(c: Circuit) -> tuple[Circuit, tuple[int, ...]]:
    """Drop SWAP instructions one by one, relabelling later qubit indices.

    Returns the rewritten circuit and the accumulated relabelling sigma
    (original wire -> output wire).
    """
    label = list(range(c.n))
    layers: list[list[Instruction]] = []
    for layer in c.layers:
        kept: list[Instruction] = []
        for inst in sorted(layer, key=lambda i: i.qubits):
            qs = tuple(label[q] for q in inst.qubits)
            if inst.gate.name == "SWAP":
                # The wires labelled qs[0], qs[1] are exactly a and b.
                a, b = inst.qubits
                label[a], label[b] = label[b], label[a]
                continue
            kept.append(Instruction(inst.gate, qs))
        if kept:
            layers.append(kept)
    return Circuit(c.n, tuple(tuple(l) for l in layers)), tuple(label)


def compile_with_iswap_heuristic(
    source: Circuit,
    gs: GateSet,
    *,
    frame_mode: str = "report",
    available_pairs: Iterable[tuple[int, int]] | None = None,
) -> CompilationResult:
    """Cross-class compilation via virtual SWAP insertion.

    A SWAP after each native entangler makes the composite match the source's
    entangler class, the standard pipeline runs against the composites, and
    the SWAPs are then removed one by one while relabelling later qubit
    indices.  The result verifies against the target up to signs and the
    accumulated wire relabelling, which the result carries.
    """
    if frame_mode not in FRAME_MODES:
        raise ValueError(f"frame_mode must be one of {FRAME_MODES}")
    native = gs.entangler
    source_classes = {
        inst.gate.entangler_class
        for inst in source.instructions()
        if inst.gate.arity == 2
    }
    if "swap_like" in source_classes or "none" in source_classes:
        raise CompileError("source entanglers must be cx-like or iswap-like")
    opposite = "cx_like" if native.entangler_class == "iswap_like" else "iswap_like"
    if not source_classes or source_classes == {native.entangler_class}:
        return compile_circuit(source, gs, frame_mode=frame_mode)
    if source_classes != {opposite}:
        raise CompileError("mixed-class sources are not supported")

    target = tb.from_circuit(source)
    working, u = _propagation_sweep(source, gs, virtual_swap=True)

    # conjugation fix against the composite working circuit
    builder = _LayerBuilder(source.n)
    for layer in working.layers:
        builder.place_layer(layer)
    for wire in range(source.n):
        gate = class_gate_for_perm(perm_invert(u[wire]))
        if gate.name != "I":
            builder.place_single(wire, gate)
    staged = _expand_classes(_fuse_adjacent_singles(builder.circuit()), gs)

    final, sigma = _remove_virtual_swaps(staged)
    if two_qubit_count(final) != two_qubit_count(source):
        raise VerificationError("two-qubit count was not preserved")
    relabelled_target = target.relabel_wires(sigma)
    t_out = tb.from_circuit(final)
    ok, flips = tb.equal_up_to_sign(t_out, relabelled_target)
    if not ok:
        raise VerificationError(
            "compiled tableau differs from the relabelled target"
        )
    frame = solve_frame(t_out.images(), flips)
    if frame_mode == "fold":
        if not frame.is_identity():
            final = Circuit(final.n, final.layers + (_frame_layer(frame),))
        if tb.from_circuit(final) != relabelled_target:
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
        permutation=sigma,
        gateset=gs.name,
        frame_mode=frame_mode,
        unavailable_pairs=tuple(flagged),
    )
