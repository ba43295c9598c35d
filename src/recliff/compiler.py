"""Retarget unitary stabilizer circuits onto a native gateset.

One sweep over the source builds the output.  Each source entangler becomes
the native entangler on the same qubit pair and in the same layer (the
two-qubit count is forced, so this skeleton is minimal); the sweep adds only
single-qubit basis changes, placed by one layer builder:

1.  Propagation.  For each output wire the sweep keeps the basis change
    relating the source's instantaneous conjugation to the output's: the
    certificate walk's single-qubit state on that wire without its signs,
    one of six.  A two-qubit Clifford leaves one input letter per wire
    un-spread (Z on a CX control, X on its target, X on both wires of the XX
    interaction, and so on), and the certificate's 2-qubit step through the
    native against the source gate is local exactly when each wire's state
    carries the source gate's protected letter onto the native gate's.
    Where it does not, the cheapest class that makes it so (its native
    word's length, plus 1 for a residual Pauli; ties in CLASS_GATES order)
    is inserted just before the entangler.  The constraint is per-wire
    separable, so one sweep in time order fixes every generator's
    propagation at once, one lookup per entangler in a table read off that
    step and keyed by the states of its two output wires.
    Against a source gate of the other class the native crosses the pair's
    wires (the swap-insertion mode), as that gate's own step table says; the
    sweep then exchanges the pair's output labels instead of emitting a SWAP,
    so later gates land on the relabelled wires.  No other check reads the
    source's classes: a gate that no step makes local (swap-like, or
    entangling nothing) is refused, and outside that mode so is the first
    gate whose step crosses.
2.  Conjugation.  After the last layer each wire is off from the source by a
    basis change alone; one class appended per wire, its inverse, removes it.
    Single-qubit layers never end up adjacent, so nothing needs fusing.
3.  Native words.  The builder writes each basis change as its native word,
    dropping the word's residual Pauli.  Words and entangler step tables
    depend only on the gateset and are kept on it: the words are made when
    it is built, and each table on first use, one per source gate, by the
    source gate's kernel (a single-qubit gate steps its output wire's state
    through the certificate's table); a builtin gateset is shared, so they
    are derived once per process.  No compile builds a gate.
4.  Frame.  The output is certified against the source: the map from the
    source to the output must be a Pauli times the sweep's wire permutation
    (the identity outside the swap-insertion mode); a failed check raises.
    The output's entangler layers are the source's, so the certificate walks
    them per wire and builds no n-qubit tableau.  The Pauli is the frame,
    reported or folded in as a final layer.

Both entry points run this pipeline and differ in one flag: whether the
native may cross a pair's wires, so a source may mix gates of both classes.
Folding certifies the frame layer on its own, which must give the frame
itself; the whole output is not walked again.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .pauli import Pauli, PauliProduct, _Record, terms
from . import tableau as tb
from .circuit import (Circuit, Instruction, _circuit, _instruction, _layer, depth, gate_counts,
                      two_qubit_count)
from .gates import CLASS_GATES, GateDef, GateSet, builtin, perm_apply
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
    non-identity Paulis.  Two letters fix a letter permutation, so the gate
    is the one class whose ``perm`` takes current onto target; current ==
    target yields I.
    """
    for pair, role in ((current, "current"), (target, "target")):
        a, b = pair
        if a == Pauli.I or b == Pauli.I or a == b:
            raise ValueError(f"{role} pair {pair} is not an anticommuting non-identity pair")
    return next(gate for gate in CLASS_GATES
                if perm_apply(gate.perm, current[0]) == target[0]
                and perm_apply(gate.perm, current[1]) == target[1])


# ---------------------------------------------------------------------------
# Result type


class CompilationResult(_Record):
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
            # One layer per word step, over the wires whose word is that long.
            todo = [((q,), self.words[layer[q]]) for q in sorted(layer)]  # as _circuit sorts
            step = 0
            while todo:
                layers.append(_layer([(word[step], qs) for qs, word in todo]))
                step += 1
                todo = [item for item in todo if len(item[1]) > step]
        return _circuit(self.n, layers)


# ---------------------------------------------------------------------------
# The sweep (exact, source-instantaneous reference)


# The six classes as the certificate's states without signs (the low four
# bits of a :func:`tableau._run` state), by CLASS_GATES index: the sweep's
# only letter algebra.  ``_AFTER[k][s]`` is state s, then class k, as one
# ``_run`` step; ``_UNDO[s]`` is the class that takes s back to the identity.
_STATE = tuple(tb._run(tb._ONE, (gate.kernel,)) & 15 for gate in CLASS_GATES)
_AFTER = tuple({s: tb._run(s, (gate.kernel,)) & 15 for s in _STATE} for gate in CLASS_GATES)
_UNDO = {s: [after[s] for after in _AFTER].index(tb._ONE) for s in _STATE}


def _step_table(gs: GateSet, gate: GateDef) -> tuple:
    """Derive the sweep's step through a source entangler, for every state of
    its wires, and keep it on the gateset by the gate's kernel.

    Entry ``sp | sq << 4``, for states sp and sq on the native's two output
    wires, is ``(fix_p, fix_q, sp', sq', swapped)``: the CLASS_GATES index
    inserted on each wire before it (0 for none), then the wires' states
    after it and whether the native crossed them, as
    :func:`tableau._kernel_step` gives them.  The states for which that step
    stays local are all pairs from two per-wire sets; each fix is the
    cheapest class into its wire's set.  Up to local Cliffords a two-qubit
    Clifford is local, CX-like, iSWAP-like or SWAP-like, so no state makes
    the step local exactly when the gate is swap-like or entangles nothing:
    that raises :class:`CompileError`, worded by the gate's class.  An
    entangling gate whose step is never local, local pairs not per wire, or
    entries that disagree on crossing the pair, raise ``AssertionError``.
    """
    native = gs.entangler
    steps = {(sp, sq): tb._kernel_step(native.kernel, gate.kernel_inv, False, sp, sq)
             for sp in _STATE for sq in _STATE}
    local = [pair for pair, step in steps.items() if step]
    if not local:
        if gate.entangler_class == "swap_like":
            raise CompileError(
                f"{gate.name} is a swap-like gate; swap compilation is not supported"
            )
        if gate.entangler_class == "none":
            raise CompileError(f"{gate.name} entangles nothing and cannot be compiled")
        raise AssertionError(f"the step through {gate.name} entangles its wires")
    allowed = [{pair[w] for pair in local} for w in (0, 1)]
    if len(local) != len(allowed[0]) * len(allowed[1]):
        raise AssertionError(f"the local steps through {gate.name} are not per wire")
    cost = [len(word) + (not residual.is_identity()) for word, residual in gs._class_words]
    fixes = [{s: min((k for k in range(6) if _AFTER[k][s] in ok), key=lambda k: (cost[k], k))
              for s in _STATE} for ok in allowed]
    table: list = [None] * 256
    for sp, fp in fixes[0].items():
        for sq, fq in fixes[1].items():
            tp, tq, swapped = steps[_AFTER[fp][sp], _AFTER[fq][sq]]
            table[sp | sq << 4] = (fp, fq, tp & 15, tq & 15, swapped)
    if len({entry[4] for entry in table if entry}) != 1:
        raise AssertionError(f"the steps through {gate.name} disagree on crossing its wires")
    gs._step_tables[gate.kernel] = table = tuple(table)
    return table


def _sweep(source: Circuit, gs: GateSet, may_cross: bool) -> tuple[Circuit, tuple[int, ...]]:
    """The native output circuit and the wire permutation, in one walk.

    Keeps :func:`tableau._local`'s ``states`` without signs, by output
    wire, and ``label`` (source wire -> output wire) as its relabelling.
    Inserts a basis change before an entangler wherever a wire's state does
    not carry the source gate's protected letter onto the native gate's,
    then appends to each wire the basis change undoing its state.  Where the
    native crosses a pair's wires (against a gate of the other class, as its
    own step says), the pair's output labels are exchanged in place of a
    SWAP, or, unless ``may_cross``, :class:`CompileError` names the gate;
    the permutation is the final ``label``.  The step table refuses a
    swap-like or non-entangling gate, so the first gate met that cannot
    compile is the one named.  Each gate is one lookup:
    a single-qubit gate in the certificate's own table (``tableau._TABLES``),
    an entangler in its step table (:func:`_step_table`); the pairs in a
    layer are disjoint, so the layer is walked once.
    """
    n = source.n
    native = gs.entangler
    tables, ones = gs._step_tables, tb._TABLES[True]

    states = [tb._ONE] * n  # indexed by output wire
    label = list(range(n))  # source wire -> output wire
    out = _LayerBuilder(n, [word for word, _ in gs._class_words])
    place = out.place_single
    for layer in source.layers:
        natives = []
        for inst in layer:
            gate = inst.gate
            if gate.arity == 1:
                step = ones.get(gate.kernel) or ones.setdefault(gate.kernel, tb._table(gate, True))
                w = label[inst.qubits[0]]
                states[w] = step[states[w]] & 15
                continue
            step = tables.get(gate.kernel) or _step_table(gs, gate)
            a, b = inst.qubits
            p, q = label[a], label[b]
            fix_p, fix_q, states[p], states[q], swapped = step[states[p] | states[q] << 4]
            if fix_p:
                place(p, fix_p)
            if fix_q:
                place(q, fix_q)
            natives.append(_instruction(native, (p, q)))
            if swapped:
                if not may_cross:
                    raise CompileError(
                        f"source entangler {gate.name} is {gate.entangler_class} but the "
                        f"{gs.name} gateset entangler {native.name} is "
                        f"{native.entangler_class}; use the iswap heuristic mode"
                    )
                label[a], label[b] = q, p
        if natives:
            out.place_layer(natives)
    # Conjugation fix: each wire is now off from the source by its state alone.
    for wire, s in enumerate(states):
        place(wire, _UNDO[s])
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
    final, permutation = _sweep(source, gs, may_cross)
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
    if stats.two_qubit_count != two_qubit_count(source):
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

    Against a source gate of the other class, the native entangler crosses
    the pair's wires: it equals the gate up to single-qubit basis changes
    and a SWAP.  The sweep emits only the native entangler and relabels the
    pair's later gates in place of the SWAP.  Each gate decides alone, so a
    source may mix classes; same-class gates compile as in
    :func:`compile_circuit`.  The result verifies up to signs and relabelling.
    """
    return _compile(source, gs, frame_mode, True)
