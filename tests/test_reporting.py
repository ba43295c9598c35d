import json
from collections import Counter

import pytest

from recliff import (
    Circuit,
    GateDef,
    GateSet,
    Instruction,
    SurfaceCodeSpec,
    append_gate,
    builtin,
    builtin_gateset,
    compare,
    compile_circuit,
    compile_with_iswap_heuristic,
    expand_ecr,
    gate_counts,
    identity,
    parse,
    report,
    surface_code_syndrome_extraction,
)

from test_golden import golden_sources


def assert_counts_are_gate_counts(c: Circuit) -> None:
    """report's counts are gate_counts', in the order of each name's first
    instruction, and its totals are the lengths of the gate columns."""
    rep = report(c)
    want = Counter(inst.gate.name for inst in c.instructions())
    assert list(rep.counts.items()) == list(gate_counts(c).items()) == list(want.items())
    singles = sum(len(layer[0]) for layer in c._columns)
    pairs = sum(len(layer[2]) for layer in c._columns)
    assert (rep.single_qubit_count, rep.two_qubit_count, rep.total) == (
        singles, pairs, singles + pairs)


class TestReport:
    def test_d11_source_counts(self):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(11))
        rep = report(c)
        assert rep.counts == {"CX": 440, "H": 120}
        assert rep.two_qubit_count == 440
        assert rep.depth == 6
        assert rep.total == 560

    def test_empty_circuit(self):
        rep = report(Circuit(0, ()))
        assert rep.counts == {}
        assert rep.total == 0
        assert rep.x_type_count == rep.z_type_count == 0

    def test_compiled_d11_two_qubit_preserved(self):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(11))
        res = compile_circuit(c, builtin_gateset("sqrt_xx", "s_sx"))
        assert res.stats.two_qubit_count == 440

    def test_totals_match_gate_counts(self):
        c = parse("H 0\nTICK\nCX 0 1\nS 2")
        rep = report(c)
        assert rep.total == sum(gate_counts(c).values())

    def test_x_z_split_tiles_expanded_circuits(self):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(3))
        res = compile_circuit(c, builtin_gateset("sqrt_xx", "s_sx"))
        rep = res.stats
        assert rep.x_type_count + rep.z_type_count == rep.single_qubit_count

    def test_custom_gateset_counts(self):
        # A CZ defined as H.CX.H under a name the builtin registry lacks.
        t = identity(2)
        for name, qubits in (("H", (1,)), ("CX", (0, 1)), ("H", (1,))):
            t = append_gate(t, builtin(name), qubits)
        gs = GateSet("mycz", GateDef("MYCZ", 2, t), (builtin("S"), builtin("SQRT_X")))
        source = surface_code_syndrome_extraction(SurfaceCodeSpec(3))
        res = compile_circuit(source, gs)
        counts = res.stats.counts
        assert set(counts) == {"MYCZ", "S", "SQRT_X"}
        assert counts["MYCZ"] == res.stats.two_qubit_count == 24
        assert res.stats.single_qubit_count == counts["S"] + counts["SQRT_X"]
        assert res.stats.total == sum(counts.values())

    def test_counts_are_gate_counts_on_the_golden_sources(self):
        for source in golden_sources():
            assert_counts_are_gate_counts(source)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("compile_one", [compile_circuit, compile_with_iswap_heuristic])
    @pytest.mark.parametrize("frame_mode", ["report", "fold"])
    def test_counts_are_gate_counts_on_expanded_outputs(self, d, compile_one, frame_mode):
        source = surface_code_syndrome_extraction(SurfaceCodeSpec(d))
        out = compile_one(source, builtin_gateset("ecr"), frame_mode=frame_mode).circuit
        for c in (out, expand_ecr(out)):
            assert_counts_are_gate_counts(c)

    def test_counts_are_gate_counts_on_mixed_layers(self):
        # expand_ecr keeps a layer's single-qubit gates beside its CXs
        c = parse("H 0\nECR 1 2\nS 3\nTICK\nX 2\nCZ 0 3\nTICK\nECR 3 0\nSQRT_X 1")
        expanded = expand_ecr(c)
        assert any(layer[0] and layer[2] for layer in expanded._columns)
        for circuit in (c, expanded):
            assert_counts_are_gate_counts(circuit)

    def test_gates_of_one_name_count_together(self):
        h, other_h = builtin("H"), GateDef("H", 1, builtin("H").semantics)
        cx, other_cx = builtin("CX"), GateDef("CX", 2, builtin("CX").semantics)
        c = Circuit(4, ((Instruction(other_h, (0,)), Instruction(h, (1,)),
                         Instruction(other_cx, (2, 3))),
                        (Instruction(cx, (0, 1)), Instruction(other_h, (3,)))))
        assert gate_counts(c) == {"H": 3, "CX": 2}
        assert_counts_are_gate_counts(c)

    def test_json_schema(self):
        rep = report(parse("S 0\nTICK\nSQRT_X 0"))
        data = json.loads(rep.to_json())
        assert set(data) == {"counts", "x_type", "z_type", "two_qubit", "depth", "total"}
        assert data["x_type"] == 1 and data["z_type"] == 1

    def test_csv_header_only_when_empty(self):
        assert report(Circuit(0, ())).to_csv() == "name,count\n"

    def test_csv_rows(self):
        text = report(parse("H 0 1\nTICK\nCX 0 1")).to_csv()
        assert text.splitlines() == ["name,count", "CX,1", "H,2"]


class TestCompare:
    def test_identical_reports_all_ones(self):
        rep = report(parse("S 0\nSQRT_X 1\nTICK\nCX 0 1"))
        cmp = compare(rep, rep)
        assert all(v == 1.0 for v in cmp.ratios.values())
        assert cmp.undefined == ()

    def test_zero_denominator_flagged(self):
        a = report(parse("SQRT_X 0"))
        b = report(parse("S 0"))
        cmp = compare(a, b)
        assert "x_type" in cmp.undefined
        assert "x_type" not in cmp.ratios
        assert cmp.ratios["total"] == 1.0

    def test_two_qubit_ratio_one_for_same_structure(self):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(3))
        res = compile_circuit(c, builtin_gateset("sqrt_xx", "s_sx"))
        cmp = compare(res.stats, report(c))
        assert cmp.ratios["two_qubit"] == 1.0

    def test_json_shape(self):
        a = report(parse("S 0"))
        data = json.loads(compare(a, a).to_json())
        assert "ratios" in data
