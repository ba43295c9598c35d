"""Spans around calls into recliff's public functions, recorded from outside.

The tracer replaces each traced function where its caller looks it up: a
module attribute for calls like ``tb.from_circuit(...)``, the importing
module's own name for functions imported by name (``solve_frame`` in
``recliff.compiler`` and ``recliff.cli``), and the class attribute for
methods.  Spans stay in memory as ``[id, parent, request, layer, start, end,
attrs]`` and are written out once, after the run.  A target the program no
longer has is skipped and reported, so the benchmark keeps working while the
program changes under it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np


def _circuit_size(circuit) -> tuple[int, int, int]:
    """(n, gate count, sum of gate arities) of a recliff circuit."""
    gates = arity = 0
    for layer in getattr(circuit, "layers", ()):
        for inst in layer:
            gates += 1
            arity += len(inst.qubits)
    return getattr(circuit, "n", 0), gates, arity


def _state_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's attributes."""
    fields = getattr(obj, "__dict__", None) or {
        s: getattr(obj, s) for s in getattr(type(obj), "__slots__", ()) if hasattr(obj, s)
    }
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))


def _from_circuit_attrs(args, result) -> dict:
    # bytes_computed is derived from array sizes, not measured: the result's
    # arrays once, plus each gate reading and writing its wires' share.
    n, gates, arity = _circuit_size(args[0])
    state = _state_bytes(result)
    return {"gates": gates, "bytes": state + (2 * arity * state // n if n else 0)}


def _parse_attrs(args, result) -> dict:
    return {"instructions": _circuit_size(result)[1]}


def _frame_attrs(args, result) -> dict:
    return {"weight": bin(getattr(result, "x", 0) | getattr(result, "z", 0)).count("1")}


# (where the caller looks it up, attribute, layer, attrs of a finished call)
TARGETS = (
    ("recliff.tableau", "from_circuit", "tableau.from_circuit", _from_circuit_attrs),
    ("recliff.tableau", "equal_up_to_sign", "tableau.equal_up_to_sign", None),
    ("recliff.tableau:Tableau", "relabel_wires", "tableau.relabel_wires", None),
    ("recliff.compiler", "initial_condition", "compiler.initial_condition", None),
    ("recliff.compiler", "fix_propagation", "compiler.fix_propagation", None),
    ("recliff.compiler", "fix_conjugation", "compiler.fix_conjugation", None),
    ("recliff.compiler", "compile_circuit", "compiler.compile", None),
    ("recliff.cli", "compile_circuit", "compiler.compile", None),
    ("recliff.cli", "compile_with_iswap_heuristic", "compiler.compile", None),
    ("recliff.compiler", "solve_frame", "pauli.solve_frame", _frame_attrs),
    ("recliff.cli", "solve_frame", "pauli.solve_frame", _frame_attrs),
    ("recliff.compiler", "report", "reporting.report", None),
    ("recliff.cli", "parse", "circuit.parse", _parse_attrs),
    ("recliff.cli", "emit", "circuit.emit", None),
    ("recliff.cli", "builtin_gateset", "gates.builtin_gateset", None),
)
# Called per single-qubit gate, so counted without a span.
COUNTED = (("recliff.gates:GateSet", "decompose", "gates.decompose"),)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, layer: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.request, layer, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[6] = attrs(args, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for path, attr, layer, attrs in TARGETS:
            self._patch(path, attr, lambda fn, l=layer, a=attrs: self.span(l, fn, a))
        for path, attr, name in COUNTED:
            self._patch(path, attr, lambda fn, n=name: self._count(n, fn))

    def _patch(self, path: str, attr: str, wrap) -> None:
        owner = _owner(path)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{path}.{attr}")
            return
        setattr(owner, attr, wrap(original))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, request, layer, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "layer": layer, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover.

        One thread runs the program, so direct children never overlap and
        their coverage is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[5] - s[4] - child[s[0]] for s in self.spans]


def layer_metrics(tracer: Tracer, kinds: list[str], factors: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run and the self time of every layer.

    ``kinds[r]`` is the kind of request r ("compile", "compile_iswap" or
    "verify") and ``factors[r]`` the machine-speed scale of its times; spans
    of the request itself carry the layer ``cli``.  Times and counts are per
    request, so runs of different length compare.
    """
    self_s = tracer.self_times()
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    attrs = defaultdict(float)
    sims = Counter()
    for span, s in zip(tracer.spans, self_s):
        _, _, request, layer, start, end, extra = span
        total[layer] += (end - start) * factors[request]
        own[layer] += s * factors[request]
        calls[layer] += 1
        for key, value in (extra or {}).items():
            attrs[layer, key] += value
        if layer == "tableau.from_circuit":
            sims[kinds[request]] += 1
    requests = len(kinds)
    kind_count = Counter(kinds)

    def per_req(value):
        return value / requests if requests else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "tableau.from_circuit.calls": (per_req(calls["tableau.from_circuit"]), "1/req"),
        "tableau.from_circuit.s": (per_req(total["tableau.from_circuit"]), "s/req"),
        "tableau.from_circuit.gates": (per_req(attrs["tableau.from_circuit", "gates"]), "gate/req"),
        "tableau.from_circuit.bytes_computed": (per_req(attrs["tableau.from_circuit", "bytes"]), "B/req"),
        "tableau.sims_per_compile": (ratio(sims["compile"], kind_count["compile"]), "1/compile"),
        "tableau.sims_per_iswap_compile": (
            ratio(sims["compile_iswap"], kind_count["compile_iswap"]), "1/compile"),
        "tableau.relabel_wires.calls": (per_req(calls["tableau.relabel_wires"]), "1/req"),
        "tableau.relabel_wires.s": (per_req(total["tableau.relabel_wires"]), "s/req"),
        "tableau.equal_up_to_sign.s": (per_req(total["tableau.equal_up_to_sign"]), "s/req"),
        "compiler.initial_condition.s": (per_req(total["compiler.initial_condition"]), "s/req"),
        "compiler.fix_propagation.s": (per_req(total["compiler.fix_propagation"]), "s/req"),
        "compiler.fix_conjugation.self_s": (per_req(own["compiler.fix_conjugation"]), "s/req"),
        "compiler.compile.self_s": (per_req(own["compiler.compile"]), "s/req"),
        "circuit.parse.calls": (per_req(calls["circuit.parse"]), "1/req"),
        "circuit.parse.s": (per_req(total["circuit.parse"]), "s/req"),
        "circuit.parse.instr_per_s": (
            ratio(attrs["circuit.parse", "instructions"], total["circuit.parse"]), "1/s"),
        "circuit.emit.s": (per_req(total["circuit.emit"]), "s/req"),
        "pauli.solve_frame.s": (per_req(total["pauli.solve_frame"]), "s/req"),
        "pauli.frame_weight": (ratio(attrs["pauli.solve_frame", "weight"], calls["pauli.solve_frame"]),
                               "qubits"),
        "reporting.report.s": (per_req(total["reporting.report"]), "s/req"),
        "gates.decompose.calls": (per_req(tracer.counts["gates.decompose"]), "1/req"),
        "gates.builtin_gateset.s": (per_req(total["gates.builtin_gateset"]), "s/req"),
        "cli.calls": (float(calls["cli"]), "count"),
        "cli.self_s": (per_req(own["cli"]), "s/req"),
    }
    return m, dict(own)
