import random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import recliff.compiler
from recliff import (
    Circuit,
    CompileError,
    GateDef,
    Instruction,
    Pauli,
    PauliProduct,
    RandomCircuitSpec,
    SurfaceCodeSpec,
    Tableau,
    VerificationError,
    builtin,
    builtin_gateset,
    compile_circuit,
    compile_with_iswap_heuristic,
    conjugation_lookup,
    depth,
    emit,
    extract_frame,
    from_circuit,
    gate_counts,
    identity,
    parse,
    random_clifford_circuit,
    surface_code_syndrome_extraction,
    two_qubit_count,
)
from recliff.circuit import _instruction
from recliff.cli import main
from recliff.gates import (
    CLASS_GATE_ORDER,
    NATIVE_SETS,
    PERM_IDENTITY,
    TARGET_ENTANGLERS,
    perm_apply,
)
from recliff.pauli import support

from conftest import (
    FAN_OUT_TEXT,
    ISWAP_LADDER_IMAGES,
    LOOKUP_GRID,
    LOOKUP_PAIR_ORDER,
    WORKED_EXAMPLE_TEXT,
    images_tableau,
    reference_lut,
)


def pairs():
    return [(Pauli.from_letter(a), Pauli.from_letter(b)) for a, b in LOOKUP_PAIR_ORDER]


class TestConjugationLookup:
    def test_all_36_cells_against_reference_grid(self):
        for i, cur in enumerate(pairs()):
            for j, tgt in enumerate(pairs()):
                assert conjugation_lookup(cur, tgt).name == LOOKUP_GRID[i][j]

    def test_every_cell_maps_current_to_target(self):
        for cur in pairs():
            for tgt in pairs():
                gate = conjugation_lookup(cur, tgt)
                assert perm_apply(gate.perm, cur[0]) == tgt[0]
                assert perm_apply(gate.perm, cur[1]) == tgt[1]

    def test_caption_cell(self):
        cur = (Pauli.Z, Pauli.Y)
        tgt = (Pauli.Y, Pauli.X)
        assert conjugation_lookup(cur, tgt).name == "C_ZYX"

    def test_diagonal_is_identity(self):
        for p in pairs():
            assert conjugation_lookup(p, p).name == "I"

    def test_rejects_degenerate_pairs(self):
        with pytest.raises(ValueError):
            conjugation_lookup((Pauli.X, Pauli.X), (Pauli.X, Pauli.Z))
        with pytest.raises(ValueError):
            conjugation_lookup((Pauli.I, Pauli.Z), (Pauli.X, Pauli.Z))


def skeleton(source: Circuit, gs) -> Circuit:
    """The source's entanglers as native entanglers, single-qubit gates dropped."""
    return Circuit(source.n, tuple(
        tuple(Instruction(gs.entangler, inst.qubits) for inst in layer if inst.gate.arity == 2)
        for layer in source.layers
    ))


def entanglers_only(c: Circuit) -> Circuit:
    return Circuit(c.n, tuple(
        tuple(inst for inst in layer if inst.gate.arity == 2) for layer in c.layers
    ))


@pytest.fixture
def no_wire_fix(monkeypatch):
    """Stop the sweep's conjugation fix from placing anything: the sweep reads
    PERM_INVERT only for the fix appended to each wire, and all zeros makes
    every fix the identity class."""
    monkeypatch.setattr(recliff.compiler, "PERM_INVERT", (0,) * 6)


class TestInitialCondition:
    """The output's entanglers are the initial condition: the native
    entangler on each source entangler's pair, roles and layer kept."""

    def test_worked_example_skeleton(self, worked_example):
        gs = builtin_gateset("ecr")
        skel = entanglers_only(compile_circuit(worked_example, gs).circuit)
        assert skel == skeleton(worked_example, gs)
        assert gate_counts(skel) == {"ECR": 4}
        assert depth(skel) == 3
        assert [inst.qubits for inst in skel.instructions()] == [
            (0, 1), (2, 3), (0, 2), (1, 3),
        ]

    def test_zero_entanglers(self):
        gs = builtin_gateset("cz")
        skel = entanglers_only(compile_circuit(parse("H 0\nS 1"), gs).circuit)
        assert skel.is_empty()

    def test_surface_code_d3_to_sqrt_xx(self):
        c = surface_code_syndrome_extraction(SurfaceCodeSpec(3))
        gs = builtin_gateset("sqrt_xx")
        skel = entanglers_only(compile_circuit(c, gs).circuit)
        assert skel == skeleton(c, gs)
        assert gate_counts(skel) == {"SQRT_XX": 24}
        assert depth(skel) == 4

    def test_class_mismatch_needs_heuristic(self):
        with pytest.raises(CompileError, match="heuristic"):
            compile_circuit(parse("ISWAP 0 1"), builtin_gateset("ecr"))

    def test_swap_rejected(self):
        with pytest.raises(CompileError, match="swap"):
            compile_circuit(parse("SWAP 0 1"), builtin_gateset("cx"))


def wire_names(circuit, wire):
    return [inst.gate.name for inst in circuit.wire_gates(wire)]


def tableau_letter_maps(t_working: Tableau, t_target: Tableau) -> list:
    """Per-wire letter permutations sending working image letters to target's.

    The conjugation fix used to read these off a second tableau simulation;
    kept here as the reference for the sweep's maps.  A propagation-fixed
    circuit differs from the target by per-wire letter permutations, so for
    every wire the (working letter -> target letter) constraints collected
    over all generators are consistent and pin the permutation completely.
    """
    iw, it = t_working.images(), t_target.images()
    perms = []
    for wire in range(t_working.n):
        col_w = [img.local(wire) for img in iw]
        col_t = [img.local(wire) for img in it]
        assert all((w == 0) == (t == 0) for w, t in zip(col_w, col_t)), (
            f"wire {wire}: supports differ")
        mapping: dict[int, int] = {}
        for code in (1, 2, 3):
            vals = {int(t) for w, t in zip(col_w, col_t) if w == code}
            if not vals:
                continue
            assert len(vals) == 1, f"wire {wire}: not a single basis change"
            mapping[code] = vals.pop()
        assert len(mapping) >= 2, f"wire {wire}: underdetermined basis change"
        if len(mapping) == 2:
            (a, ma), (b, mb) = mapping.items()
            mapping[a ^ b] = ma ^ mb
        perms.append((mapping[Pauli.X], mapping[Pauli.Z]))
    return perms


def apply_to_product(gate, qubits, p: PauliProduct) -> PauliProduct:
    """Conjugate one Pauli product through a gate via its local lookup table."""
    out_bits, sign = reference_lut(gate)
    if gate.arity == 1:
        (q,) = qubits
        key = 2 * ((p.x >> q) & 1) + ((p.z >> q) & 1)
        x = (p.x & ~(1 << q)) | (int(out_bits[0][key]) << q)
        z = (p.z & ~(1 << q)) | (int(out_bits[1][key]) << q)
        return PauliProduct(p.n, x, z, p.sign * int(sign[key]))
    a, b = qubits
    key = (
        8 * ((p.x >> a) & 1)
        + 4 * ((p.z >> a) & 1)
        + 2 * ((p.x >> b) & 1)
        + ((p.z >> b) & 1)
    )
    mask = ~((1 << a) | (1 << b))
    x = (p.x & mask) | (int(out_bits[0][key]) << a) | (int(out_bits[2][key]) << b)
    z = (p.z & mask) | (int(out_bits[1][key]) << a) | (int(out_bits[3][key]) << b)
    return PauliProduct(p.n, x, z, p.sign * int(sign[key]))


class TestFixPropagation:
    """The sweep with its conjugation fix stopped: with class6 natives each
    basis change is written as itself, so this is the propagation-fixed
    circuit before the appends."""

    def test_worked_example_insertions(self, worked_example, no_wire_fix):
        gs = builtin_gateset("ecr", "class6")
        fixed, _ = recliff.compiler._sweep(worked_example, gs, False)
        assert wire_names(fixed, 0) == ["H", "ECR", "ECR"]
        assert wire_names(fixed, 1) == ["ECR", "H_YZ", "ECR"]
        assert wire_names(fixed, 2) == ["ECR", "H_XY", "ECR"]
        assert wire_names(fixed, 3) == ["ECR", "ECR"]

    def test_supports_match_after_fix(self, worked_example, no_wire_fix):
        gs = builtin_gateset("ecr", "class6")
        target = from_circuit(worked_example)
        fixed, _ = recliff.compiler._sweep(worked_example, gs, False)
        got = from_circuit(fixed)
        for a, b in zip(got.images(), target.images()):
            assert (a.x | a.z) == (b.x | b.z)

    @pytest.mark.parametrize("target", ["cx", "cz", "sqrt_xx", "ecr", "iswap"])
    def test_maps_equal_tableau_derived_maps(self, target, monkeypatch):
        """Each wire's appended fix is exactly the letter map a tableau
        simulation of the propagation-fixed circuit against the source gives
        (onto iswap, the swap-insertion mode: against the source relabelled
        by the sweep's wire permutation)."""
        gs = builtin_gateset(target, "class6")
        virtual_swap = target == "iswap"
        sources = [surface_code_syndrome_extraction(SurfaceCodeSpec(d)) for d in (3, 5, 7)]
        for seed in range(30):
            sources.append(random_clifford_circuit(RandomCircuitSpec(
                n=2 + seed % 7, entangler_layers=1 + seed % 6, seed=4000 + seed,
                entangler=builtin(("CX", "CZ", "SQRT_XX", "ECR")[seed % 4]),
            )))
        for source in sources:
            done, perm = recliff.compiler._sweep(source, gs, virtual_swap)
            with monkeypatch.context() as m:
                m.setattr(recliff.compiler, "PERM_INVERT", (0,) * 6)
                fixed, fixed_perm = recliff.compiler._sweep(source, gs, virtual_swap)
            assert fixed_perm == perm
            want = tableau_letter_maps(
                from_circuit(fixed), from_circuit(source).relabel_wires(perm))
            for wire in range(source.n):
                before, after = fixed.wire_gates(wire), done.wire_gates(wire)
                assert after[:len(before)] == before
                appended = after[len(before):]
                assert len(appended) <= 1
                assert (appended[0].gate.perm if appended else PERM_IDENTITY) == want[wire]
            if target != "iswap":
                assert perm == tuple(range(source.n))


class TestFixConjugation:
    def test_worked_example_appends(self, worked_example):
        gs = builtin_gateset("ecr", "class6")
        done = compile_circuit(worked_example, gs).circuit
        last = done.layers[-1]
        assert {(inst.gate.name, inst.qubits) for inst in last} == {
            ("H", (0,)), ("H_XY", (1,)), ("H_YZ", (2,)),
        }

    def test_no_append_when_already_aligned(self):
        source = parse("CX 0 1\nTICK\nCX 1 2\nTICK\nCX 0 1")
        for natives in sorted(NATIVE_SETS):
            assert compile_circuit(source, builtin_gateset("cx", natives)).circuit == source

    def test_error_when_propagation_not_fixed(self, worked_example):
        gs = builtin_gateset("ecr", "class6")
        appends = compile_circuit(worked_example, gs).circuit.layers[-1]
        skel = skeleton(worked_example, gs)
        unfixed = Circuit(skel.n, skel.layers + (appends,))
        with pytest.raises(VerificationError):
            extract_frame(unfixed, worked_example)

    def test_error_names_first_disagreeing_generator(self, worked_example):
        gs = builtin_gateset("ecr", "class6")
        skel = skeleton(worked_example, gs)
        got, want = from_circuit(skel).images(), from_circuit(worked_example).images()
        g = next(g for g, (a, b) in enumerate(zip(got, want)) if (a.x, a.z) != (b.x, b.z))
        with pytest.raises(VerificationError) as info:
            extract_frame(skel, worked_example)
        assert str(info.value) == (
            "compiled circuit does not match the target up to signs: "
            f"generator {'XZ'[g % 2]}{g // 2} maps to {got[g]} in the compiled circuit "
            f"but to {want[g]} in the target"
        )


class TestClassCheckBuildsNoSkeleton:
    """A source of the wrong class is rejected before the pipeline simulates
    a tableau or starts the sweep."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        import recliff.tableau

        def refuse(*args):
            raise AssertionError("the pipeline went past the class check")

        monkeypatch.setattr(recliff.tableau, "identity", refuse)
        monkeypatch.setattr(recliff.tableau, "from_circuit", refuse)
        monkeypatch.setattr(recliff.compiler, "_sweep", refuse)

    def test_wrong_class_still_rejected(self):
        with pytest.raises(CompileError, match="heuristic"):
            compile_circuit(parse("ISWAP 0 1"), builtin_gateset("ecr"))
        with pytest.raises(CompileError, match="swap"):
            compile_circuit(parse("SWAP 0 1"), builtin_gateset("cx"))
        with pytest.raises(CompileError, match="mixed"):
            compile_with_iswap_heuristic(parse("CX 0 1\nTICK\nISWAP 1 2"),
                                         builtin_gateset("ecr"))


class TestClassCheck:
    """Every entangler-class rejection of both entry points, with its message."""

    def test_mismatch_names_the_first_offending_gate(self):
        source = parse("CX 0 1\nTICK\nISWAP 1 2\nTICK\nCXSWAP 0 1")
        with pytest.raises(CompileError) as info:
            compile_circuit(source, builtin_gateset("ecr"))
        assert str(info.value) == (
            "source entangler ISWAP is iswap_like but the ecr gateset entangler ECR "
            "is cx_like; use the iswap heuristic mode"
        )

    @pytest.mark.parametrize("entry,message", [
        (compile_circuit, "SWAP is a swap-like gate; swap compilation is not supported"),
        (compile_with_iswap_heuristic, "source entanglers must be cx-like or iswap-like"),
    ])
    def test_swap_like_rejected_in_both_modes(self, entry, message):
        with pytest.raises(CompileError) as info:
            entry(parse("CX 0 1\nTICK\nSWAP 1 2"), builtin_gateset("ecr"))
        assert str(info.value) == message

    @pytest.mark.parametrize("entry,message", [
        (compile_circuit, "source entangler II is none but the ecr gateset entangler "
                          "ECR is cx_like; use the iswap heuristic mode"),
        (compile_with_iswap_heuristic, "source entanglers must be cx-like or iswap-like"),
    ])
    def test_none_class_entangler_rejected_in_both_modes(self, entry, message):
        product = GateDef("II", 2, identity(2))
        assert product.entangler_class == "none"
        source = Circuit(2, ((Instruction(product, (0, 1)),),))
        with pytest.raises(CompileError) as info:
            entry(source, builtin_gateset("ecr"))
        assert str(info.value) == message

    @pytest.mark.parametrize("target", ["ecr", "iswap"])
    def test_heuristic_rejects_mixed_classes(self, target):
        source = parse("CX 0 1\nTICK\nISWAP 1 2")
        with pytest.raises(CompileError) as info:
            compile_with_iswap_heuristic(source, builtin_gateset(target))
        assert str(info.value) == "mixed-class sources are not supported"

class TestSabotagedConjugationFix:
    """With the conjugation fix disabled, no entry point returns a result."""

    @pytest.fixture(autouse=True)
    def skip_conjugation_fix(self, no_wire_fix):
        pass

    def test_compile_circuit_raises(self, worked_example):
        with pytest.raises(VerificationError):
            compile_circuit(worked_example, builtin_gateset("ecr"))

    def test_iswap_heuristic_raises(self, fan_out_circuit):
        with pytest.raises(VerificationError):
            compile_with_iswap_heuristic(fan_out_circuit, builtin_gateset("iswap"))

    def test_cli_exits_4_with_one_line(self, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text(emit(parse(WORKED_EXAMPLE_TEXT)))
        r = CliRunner().invoke(main, ["compile", "--target", "ecr", str(src)])
        assert r.exit_code == 4
        assert r.output.startswith("verification failure: ")
        assert r.output.count("\n") == 1

    def test_cli_failure_line_names_a_generator(self, tmp_path):
        src = tmp_path / "src.stim"
        src.write_text(emit(parse(WORKED_EXAMPLE_TEXT)))
        r = CliRunner().invoke(main, ["compile", "--target", "ecr", str(src)])
        assert r.exit_code == 4
        assert r.output.startswith("verification failure: compiled circuit does not "
                                   "match the target up to signs: generator ")
        assert " in the compiled circuit but to " in r.output
        assert r.output.count("\n") == 1


class TestSabotagedCertificate:
    """A wrong permutation or a wrong folded layer is caught by the one
    certificate tableau."""

    @pytest.mark.parametrize("swap_mode", [False, True])
    def test_wrong_permutation_rejected(self, monkeypatch, fan_out_circuit, swap_mode):
        sweep = recliff.compiler._sweep

        def reversed_labels(*args):
            circuit, permutation = sweep(*args)
            return circuit, permutation[::-1]

        monkeypatch.setattr(recliff.compiler, "_sweep", reversed_labels)
        gs = builtin_gateset("iswap" if swap_mode else "ecr")
        compile_one = compile_with_iswap_heuristic if swap_mode else compile_circuit
        with pytest.raises(VerificationError, match="does not match the target"):
            compile_one(fan_out_circuit, gs)

    def test_wrong_folded_layer_rejected(self, monkeypatch, worked_example):
        real = recliff.compiler.builtin
        monkeypatch.setattr(recliff.compiler, "builtin",
                            lambda name: real({"X": "Z", "Z": "X"}.get(name, name)))
        with pytest.raises(VerificationError, match="^frame folding did not produce"):
            compile_circuit(worked_example, builtin_gateset("ecr"), frame_mode="fold")


class TestExtractFrame:
    def test_worked_example_frame(self, worked_example):
        res = compile_circuit(worked_example, builtin_gateset("ecr", "s_sx"))
        assert str(res.frame) == "+X2"
        assert extract_frame(res.circuit, worked_example) == res.frame

    def test_exact_compilation_gives_identity(self):
        source = parse("CX 0 1")
        assert extract_frame(source, source).is_identity()

    def test_random_cz_compilations_fold_validated(self):
        gs = builtin_gateset("cz", "s_sx")
        for seed in range(10):
            spec = RandomCircuitSpec(
                n=4, entangler_layers=3, seed=seed, entangler=builtin("CX")
            )
            source = random_clifford_circuit(spec)
            res = compile_circuit(source, gs, frame_mode="fold")
            assert from_circuit(res.circuit) == from_circuit(source)

    def test_precondition_violated(self, worked_example):
        with pytest.raises(Exception):
            extract_frame(parse("H 0"), parse("S 0"))


def reference_frame_layer(frame):
    """The folded layer as first written: ``local`` shifts the n-bit masks per term."""
    return [_instruction(builtin(frame.local(q).letter), (q,)) for q in support(frame)]


class TestFrameLayerAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 140).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1),
        st.sampled_from([1, -1]))))
    def test_hypothesis_frames(self, parts):
        frame = PauliProduct(*parts)
        assert recliff.compiler._frame_layer(frame) == reference_frame_layer(frame)

    def test_dense_frame_at_the_default_limit(self):
        rng = random.Random(11)
        n = 32257  # a d = 127 surface-code round
        frame = PauliProduct(n, rng.getrandbits(n), rng.getrandbits(n))
        layer = recliff.compiler._frame_layer(frame)
        assert len(layer) > n // 2
        assert layer == reference_frame_layer(frame)


class TestCompile:
    def test_worked_example_to_ecr(self, worked_example):
        res = compile_circuit(worked_example, builtin_gateset("ecr", "s_sx"))
        assert res.verified
        assert str(res.frame) == "+X2"
        assert gate_counts(res.circuit) == {"S": 6, "SQRT_X": 4, "ECR": 4}
        # per-wire structure of the final circuit
        assert wire_names(res.circuit, 0) == ["S", "SQRT_X", "S", "ECR", "ECR",
                                              "S", "SQRT_X", "S"]
        assert wire_names(res.circuit, 1) == ["ECR", "SQRT_X", "ECR", "S"]
        assert wire_names(res.circuit, 2) == ["ECR", "S", "ECR", "SQRT_X"]
        assert wire_names(res.circuit, 3) == ["ECR", "ECR"]

    def test_entangler_pairs_and_order_preserved(self, worked_example):
        res = compile_circuit(worked_example, builtin_gateset("sqrt_xx"))
        got = [i.qubits for i in res.circuit.instructions() if i.gate.arity == 2]
        want = [i.qubits for i in worked_example.instructions() if i.gate.arity == 2]
        assert got == want

    def test_output_gates_within_gateset(self, worked_example):
        gs = builtin_gateset("sqrt_xx", "s_sx")
        res = compile_circuit(worked_example, gs)
        allowed = {"SQRT_XX", "S", "SQRT_X"}
        assert {i.gate.name for i in res.circuit.instructions()} <= allowed

    def test_fold_includes_paulis_and_is_exact(self, worked_example):
        res = compile_circuit(worked_example, builtin_gateset("ecr"), frame_mode="fold")
        assert from_circuit(res.circuit) == from_circuit(worked_example)
        names = {i.gate.name for i in res.circuit.instructions()}
        assert "X" in names

    def test_frame_mode_none_raises_when_needed(self, worked_example):
        with pytest.raises(CompileError, match="frame"):
            compile_circuit(worked_example, builtin_gateset("ecr"), frame_mode="none")

    def test_source_already_native(self):
        source = parse("CX 0 1\nTICK\nCX 1 2")
        res = compile_circuit(source, builtin_gateset("cx"), frame_mode="fold")
        assert from_circuit(res.circuit) == from_circuit(source)
        assert two_qubit_count(res.circuit) == 2

    def test_empty_circuit(self):
        res = compile_circuit(parse(""), builtin_gateset("ecr"))
        assert res.circuit.is_empty()
        assert res.frame.is_identity()

    def test_single_qubit_only_source(self):
        source = parse("H 0\nTICK\nS 0\nH_XY 1")
        res = compile_circuit(source, builtin_gateset("ecr"), frame_mode="fold")
        assert from_circuit(res.circuit) == from_circuit(source)
        assert two_qubit_count(res.circuit) == 0

    def test_deterministic(self, worked_example):
        a = compile_circuit(worked_example, builtin_gateset("ecr"))
        b = compile_circuit(worked_example, builtin_gateset("ecr"))
        assert emit(a.circuit) == emit(b.circuit)
        assert a.frame == b.frame

    def test_repeated_interaction_source(self):
        source = parse("CX 0 1\nTICK\nH 0\nTICK\nCX 0 1")
        res = compile_circuit(source, builtin_gateset("ecr"), frame_mode="fold")
        assert from_circuit(res.circuit) == from_circuit(source)

    def test_opposite_orientation_pair(self):
        # image supports leave the diagonal entirely: CX(0,1) then CX(1,0)
        source = parse("CX 0 1\nTICK\nCX 1 0")
        res = compile_circuit(source, builtin_gateset("sqrt_xx"), frame_mode="fold")
        assert from_circuit(res.circuit) == from_circuit(source)

    def test_class_gate_budget_before_expansion(self, worked_example):
        from recliff import SurfaceCodeSpec, surface_code_syndrome_extraction

        gs = builtin_gateset("ecr", "class6")
        for source in (
            worked_example,
            surface_code_syndrome_extraction(SurfaceCodeSpec(3)),
        ):
            res = compile_circuit(source, gs)
            singles = res.stats.single_qubit_count
            entanglers = two_qubit_count(source)
            assert singles <= 2 * entanglers + 2 * source.n

    def test_instantaneous_local_pairs_stay_well_formed(self, worked_example):
        """Through every entangler of the compiled benchmark circuits, the
        wire-local components of the tracked generator images remain a
        non-identity anticommuting pair (holds on the single-interaction
        circuit class; opposite-orientation repeats can leave the wire)."""
        for source, target_name in (
            (worked_example, "ecr"),
            (surface_code_syndrome_extraction(SurfaceCodeSpec(3)), "sqrt_xx"),
        ):
            res = compile_circuit(source, builtin_gateset(target_name, "class6"))
            compiled = res.circuit
            n = compiled.n
            for q in range(n):
                w_x = PauliProduct.single(n, q, Pauli.X)
                w_z = PauliProduct.single(n, q, Pauli.Z)
                for layer in compiled.layers:
                    for inst in layer:
                        if inst.gate.arity == 2 and q in inst.qubits:
                            lx, lz = w_x.local(q), w_z.local(q)
                            assert lx != Pauli.I and lz != Pauli.I and lx != lz
                        w_x = apply_to_product(inst.gate, inst.qubits, w_x)
                        w_z = apply_to_product(inst.gate, inst.qubits, w_z)

    def test_metadata_shape(self, worked_example):
        res = compile_circuit(worked_example, builtin_gateset("ecr"))
        meta = res.metadata(worked_example)
        assert set(meta) == {
            "input_counts", "output_counts", "depth_in", "depth_out",
            "frame", "permutation", "verified", "gateset",
        }
        assert meta["frame"] == "+X2"
        assert meta["verified"] is True


class TestIswapHeuristic:
    def test_fan_out_compiles_to_iswap_ladder(self, fan_out_circuit):
        gs = builtin_gateset("iswap", "s_sx")
        res = compile_with_iswap_heuristic(fan_out_circuit, gs)
        assert res.verified
        ent = [i.qubits for i in res.circuit.instructions() if i.gate.arity == 2]
        assert ent == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert res.permutation[0] == 4
        got = from_circuit(res.circuit)
        want = from_circuit(fan_out_circuit).relabel_wires(res.permutation)
        ok_letters = all(
            (a.x | a.z) == (b.x | b.z) and (a.x, a.z) == (b.x, b.z)
            for a, b in zip(got.images(), want.images())
        )
        assert ok_letters

    def test_ladder_tableau_matches_reference(self):
        ladder = parse("ISWAP 0 1\nTICK\nISWAP 1 2\nTICK\nISWAP 2 3\nTICK\nISWAP 3 4")
        assert from_circuit(ladder) == images_tableau(ISWAP_LADDER_IMAGES)

    def test_random_cx_like_sources_verified(self):
        gs = builtin_gateset("iswap", "s_sx")
        for seed in range(25):
            spec = RandomCircuitSpec(
                n=4, entangler_layers=1 + seed % 4, seed=seed, entangler=builtin("CX")
            )
            source = random_clifford_circuit(spec)
            res = compile_with_iswap_heuristic(source, gs, frame_mode="fold")
            want = from_circuit(source).relabel_wires(res.permutation)
            assert from_circuit(res.circuit) == want

    def test_reverse_orientation(self):
        gs = builtin_gateset("ecr", "s_sx")
        spec = RandomCircuitSpec(n=4, entangler_layers=3, seed=3, entangler=builtin("ISWAP"))
        source = random_clifford_circuit(spec)
        res = compile_with_iswap_heuristic(source, gs, frame_mode="fold")
        want = from_circuit(source).relabel_wires(res.permutation)
        assert from_circuit(res.circuit) == want

    def test_zero_entanglers_identity_permutation(self):
        source = parse("H 0\nS 1")
        res = compile_with_iswap_heuristic(source, builtin_gateset("iswap"))
        assert res.permutation == (0, 1)
        assert res.verified

    def test_same_class_source_delegates(self):
        source = parse("ISWAP 0 1")
        res = compile_with_iswap_heuristic(source, builtin_gateset("iswap"), frame_mode="fold")
        assert res.permutation == (0, 1)
        assert from_circuit(res.circuit) == from_circuit(source)

    def test_swap_source_rejected(self):
        with pytest.raises(CompileError):
            compile_with_iswap_heuristic(parse("SWAP 0 1"), builtin_gateset("iswap"))


class TestMixedEntanglerSources:
    def _mixed_source(self, seed, names, n=5, rounds=4):
        from recliff import Circuit, Instruction

        rng = random.Random(seed)
        singles = ["I", "H", "S", "SQRT_X", "H_XY", "H_YZ", "C_XYZ", "C_ZYX", "X", "Z"]
        layers = []
        for _ in range(rounds):
            order = list(range(n))
            rng.shuffle(order)
            layers.append(tuple(
                Instruction(builtin(rng.choice(names)), (order[i], order[i + 1]))
                for i in range(0, n - 1, 2)
            ))
            sl = [
                Instruction(builtin(g), (q,))
                for q in range(n)
                if (g := rng.choice(singles)) != "I"
            ]
            if sl:
                layers.append(tuple(sl))
        return Circuit(n, tuple(layers))

    def test_mixed_cx_like_entanglers(self):
        for seed in range(10):
            source = self._mixed_source(seed, ["CX", "CZ", "SQRT_XX", "ECR"])
            for target in ("sqrt_xx", "ecr"):
                res = compile_circuit(source, builtin_gateset(target), frame_mode="fold")
                assert from_circuit(res.circuit) == from_circuit(source)

    def test_mixed_iswap_like_entanglers(self):
        for seed in range(10):
            source = self._mixed_source(seed, ["ISWAP", "CXSWAP", "CZSWAP"])
            res = compile_circuit(
                source, builtin_gateset("iswap"), frame_mode="fold"
            )
            assert from_circuit(res.circuit) == from_circuit(source)


class TestDenseUnitaryOracle:
    def test_folded_output_equals_source_unitary(self):
        """Independent end-to-end check: the folded compilation implements the
        same unitary as the source, up to global phase, by literal matrix
        arithmetic on 3-qubit circuits."""
        import numpy as np

        from matrix_oracle import circuit_unitary

        for seed in range(6):
            spec = RandomCircuitSpec(
                n=3, entangler_layers=2, seed=300 + seed, entangler=builtin("CX")
            )
            source = random_clifford_circuit(spec)
            for target in ("sqrt_xx", "ecr"):
                res = compile_circuit(
                    source, builtin_gateset(target, "s_sx"), frame_mode="fold"
                )
                u_src = circuit_unitary(source)
                u_out = circuit_unitary(res.circuit)
                idx = np.unravel_index(np.argmax(np.abs(u_src)), u_src.shape)
                phase = u_out[idx] / u_src[idx]
                assert np.isclose(abs(phase), 1)
                assert np.allclose(u_out, phase * u_src)


class TestSoundnessSample:
    @pytest.mark.parametrize("target", ["cx", "cz", "sqrt_xx", "ecr"])
    def test_random_circuits_fold_exact(self, target):
        gs = builtin_gateset(target, "s_sx")
        for seed in range(20):
            spec = RandomCircuitSpec(
                n=2 + seed % 5,
                entangler_layers=1 + seed % 5,
                seed=900 + seed,
                entangler=builtin("CX" if seed % 2 else "CZ"),
            )
            source = random_clifford_circuit(spec)
            res = compile_circuit(source, gs, frame_mode="fold")
            assert from_circuit(res.circuit) == from_circuit(source)
            assert two_qubit_count(res.circuit) == two_qubit_count(source)


ENTANGLER_CLASSES = {
    "cx_like": ("CX", "CZ", "SQRT_XX", "ECR"),
    "iswap_like": ("ISWAP", "CXSWAP", "CZSWAP"),
}
SINGLE_QUBIT_GATES = (
    "I", "X", "Y", "Z", "H", "S", "S_DAG", "SQRT_X", "SQRT_X_DAG",
    "H_XY", "H_YZ", "C_XYZ", "C_ZYX",
)


@st.composite
def one_class_circuits(draw, max_n=6, max_layers=8):
    """Layered circuits whose entanglers all come from one drawn class."""
    names = ENTANGLER_CLASSES[draw(st.sampled_from(sorted(ENTANGLER_CLASSES)))]
    n = draw(st.integers(2, max_n))
    layers = []
    for _ in range(draw(st.integers(0, max_layers))):
        order = draw(st.permutations(range(n)))
        pairs = draw(st.integers(0, n // 2))
        layer = [
            Instruction(builtin(draw(st.sampled_from(names))), (order[2 * i], order[2 * i + 1]))
            for i in range(pairs)
        ]
        for q in order[2 * pairs:]:
            name = draw(st.sampled_from(SINGLE_QUBIT_GATES))
            if name != "I":
                layer.append(Instruction(builtin(name), (q,)))
        layers.append(tuple(layer))
    return Circuit.build(layers)


def crosses_class(source, gs) -> bool:
    return any(
        inst.gate.arity == 2 and inst.gate.entangler_class != gs.entangler.entangler_class
        for inst in source.instructions()
    )


class TestPipelineProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        one_class_circuits(),
        st.sampled_from(sorted(TARGET_ENTANGLERS)),
        st.sampled_from(sorted(NATIVE_SETS)),
    )
    def test_folded_output_is_source_relabelled(self, source, target, natives):
        gs = builtin_gateset(target, natives)
        entry = compile_with_iswap_heuristic if crosses_class(source, gs) else compile_circuit
        res = entry(source, gs, frame_mode="fold")
        assert from_circuit(res.circuit) == from_circuit(source).relabel_wires(res.permutation)
        assert two_qubit_count(res.circuit) == two_qubit_count(source)
        assert parse(emit(source)) == source
        # The dialect's qubit count is 1 + the largest index used.
        assert parse(emit(res.circuit)) == Circuit.build(res.circuit.layers)


class TestNothingToFuse:
    """Compile output leaves nothing for a pass fusing basis changes: the
    sweep never puts two single-qubit-only layers next to each other, and
    each holds one class gate per wire, written as one native word."""

    @settings(max_examples=150, deadline=None)
    @given(
        one_class_circuits(),
        st.sampled_from(sorted(TARGET_ENTANGLERS)),
        st.sampled_from(sorted(NATIVE_SETS)),
    )
    def test_no_adjacent_single_qubit_layers(self, source, target, natives):
        gs = builtin_gateset(target, natives)
        entry = compile_with_iswap_heuristic if crosses_class(source, gs) else compile_circuit
        out = entry(source, gs).circuit
        # A class gate's word is one class6 native or at most three s_sx natives.
        longest = 1 if natives == "class6" else 3
        run = 0
        for layer in out.layers:
            run = run + 1 if all(inst.gate.arity == 1 for inst in layer) else 0
            assert run <= longest
        for inst in out.instructions():
            if inst.gate.arity == 2:
                assert inst.gate is gs.entangler
            elif natives == "class6":
                assert inst.gate.name in CLASS_GATE_ORDER and inst.gate.name != "I"
            else:
                assert inst.gate in gs.single_qubit_natives


class TestWorkCounts:
    """Deterministic counts that keep the pipeline from redoing work."""

    @pytest.fixture(scope="class")
    def d5_text(self):
        return emit(surface_code_syndrome_extraction(SurfaceCodeSpec(5)))

    def test_no_checked_construction_inside_the_pipeline(self, monkeypatch, d5_text):
        calls = []
        for cls in (Instruction, Circuit):
            def counted(self, check=cls.__post_init__):
                calls.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        Circuit(2, ((Instruction(builtin("CX"), (0, 1)),),))
        assert calls == ["Instruction", "Circuit"]  # the counter sees public calls
        calls.clear()
        source = parse(d5_text)
        for target in sorted(TARGET_ENTANGLERS):
            gs = builtin_gateset(target)
            for frame_mode in ("report", "fold"):
                if gs.entangler.entangler_class == "cx_like":
                    compile_circuit(source, gs, frame_mode=frame_mode)
                compile_with_iswap_heuristic(source, gs, frame_mode=frame_mode)
        assert calls == []

    @pytest.fixture(scope="class")
    def d5_outputs(self, d5_text):
        source = parse(d5_text)
        outputs = [source]
        for target in sorted(TARGET_ENTANGLERS):
            gs = builtin_gateset(target)
            if gs.entangler.entangler_class == "cx_like":
                outputs.append(compile_circuit(source, gs).circuit)
            outputs.append(compile_with_iswap_heuristic(source, gs).circuit)
        return outputs

    def test_no_gate_lookup_inside_parse(self, monkeypatch, d5_text):
        import recliff.circuit
        import recliff.gates

        calls = []
        for module in (recliff.gates, recliff.circuit):
            def counted(name, lookup=module.builtin):
                calls.append(name)
                return lookup(name)

            monkeypatch.setattr(module, "builtin", counted)
        recliff.gates.builtin("CX")
        assert calls == ["CX"]  # the counter sees calls
        calls.clear()
        parse(d5_text + "TICK\nCNOT 0 1\n")
        assert calls == []

    def test_no_instruction_str_inside_emit(self, monkeypatch, d5_outputs):
        calls = []

        def counted(self, to_text=Instruction.__str__):
            calls.append(self)
            return to_text(self)

        monkeypatch.setattr(Instruction, "__str__", counted)
        assert str(next(d5_outputs[0].instructions())) == "H 25"
        assert len(calls) == 1  # the counter sees calls
        calls.clear()
        for c in d5_outputs:
            emit(c)
        assert calls == []

    def test_outputs_round_trip(self, d5_outputs):
        assert len(d5_outputs) == 10  # the source, 4 standard and 5 swap-mode compiles
        for c in d5_outputs:
            assert parse(emit(c)) == c

    @pytest.mark.parametrize("frame_mode", ["report", "fold"])
    @pytest.mark.parametrize("target,swap_mode", [("ecr", False), ("iswap", True)])
    def test_two_simulations_per_compile(self, monkeypatch, d5_text, frame_mode,
                                         target, swap_mode):
        """The source's inverse and then the output are simulated onto one
        n-qubit tableau; no circuit gets a tableau of its own."""
        import recliff.tableau

        source = parse(d5_text)
        built, simulated = [], []
        blank, simulate = recliff.tableau.identity, recliff.tableau.from_circuit

        def counted_identity(n):
            built.append(n)
            return blank(n)

        def counted_simulation(circuit):
            simulated.append(circuit)
            return simulate(circuit)

        monkeypatch.setattr(recliff.tableau, "identity", counted_identity)
        monkeypatch.setattr(recliff.tableau, "from_circuit", counted_simulation)
        compile_one = compile_with_iswap_heuristic if swap_mode else compile_circuit
        res = compile_one(source, builtin_gateset(target), frame_mode=frame_mode)
        assert built.count(source.n) == 1
        assert simulated == []
        assert not res.frame.is_identity()  # so fold has a layer to apply
        if frame_mode == "fold":
            assert simulate(res.circuit) == simulate(source).relabel_wires(res.permutation)

    def test_two_qubit_count_checked_against_the_class_check(self, monkeypatch, d5_text):
        crosses = recliff.compiler._crosses_class

        def one_more(*args):
            virtual_swap, entanglers = crosses(*args)
            return virtual_swap, entanglers + 1

        monkeypatch.setattr(recliff.compiler, "_crosses_class", one_more)
        with pytest.raises(VerificationError, match="^two-qubit count was not preserved$"):
            compile_circuit(parse(d5_text), builtin_gateset("ecr"))

    @pytest.mark.parametrize("target,swap_mode", [("ecr", False), ("iswap", True)])
    def test_one_output_circuit_per_compile(self, monkeypatch, d5_text, target, swap_mode):
        calls = []
        build = recliff.compiler._circuit

        def counted(n, layers):
            calls.append(n)
            return build(n, layers)

        monkeypatch.setattr(recliff.compiler, "_circuit", counted)
        source = parse(d5_text)
        compile_one = compile_with_iswap_heuristic if swap_mode else compile_circuit
        compile_one(source, builtin_gateset(target), frame_mode="report")
        assert len(calls) == 1

    def test_class_words_decomposed_once_per_gateset(self, monkeypatch, d5_text):
        import recliff.gates

        calls = []
        decompose = recliff.gates.decompose_single_qubit

        def counted(g, natives):
            calls.append(g)
            return decompose(g, natives)

        monkeypatch.setattr(recliff.gates, "decompose_single_qubit", counted)
        source = parse(d5_text)
        gs = builtin_gateset("ecr")
        for _ in range(50):
            compile_circuit(source, gs)
        assert len(calls) <= 6

    def test_no_gate_built_inside_a_compile(self, monkeypatch, d5_text):
        """Builtin gates and gatesets are shared, and the swap-insertion mode
        reads the native's table with its wires exchanged: no compile, in
        either mode, defines a gate."""
        cx_source = parse(d5_text)
        iswap_source = compile_with_iswap_heuristic(cx_source, builtin_gateset("iswap")).circuit
        calls = []

        def counted(self, *args, define=GateDef.__init__):
            calls.append(args[0])
            define(self, *args)

        monkeypatch.setattr(GateDef, "__init__", counted)
        GateDef("CZ2", 2, builtin("CZ").semantics)
        assert calls == ["CZ2"]  # the counter sees public calls
        calls.clear()
        for target in sorted(TARGET_ENTANGLERS):
            for natives in sorted(NATIVE_SETS):
                gs = builtin_gateset(target, natives)
                for source, cls in ((cx_source, "cx_like"), (iswap_source, "iswap_like")):
                    if gs.entangler.entangler_class == cls:
                        compile_circuit(source, gs)
                    compile_with_iswap_heuristic(source, gs, frame_mode="fold")
        assert calls == []

    def test_builtin_gatesets_are_shared(self):
        for target in TARGET_ENTANGLERS:
            for natives in NATIVE_SETS:
                assert builtin_gateset(target, natives) is builtin_gateset(target, natives)
        assert builtin_gateset("ecr") is builtin_gateset("ecr", "s_sx")

    def test_class_words_derived_once_across_cli_requests(self, monkeypatch, tmp_path):
        import recliff.gates

        calls = []
        decompose = recliff.gates.decompose_single_qubit

        def counted(g, natives):
            calls.append(g)
            return decompose(g, natives)

        monkeypatch.setattr(recliff.gates, "decompose_single_qubit", counted)
        # Start from no shared gatesets, so the first request derives the words.
        monkeypatch.setattr(recliff.gates, "_GATESETS", {}, raising=False)
        src = tmp_path / "fan_out.stim"
        src.write_text(FAN_OUT_TEXT)
        for _ in range(2):
            r = CliRunner().invoke(main, ["compile", "--target", "iswap", "--natives", "class6",
                                          "--iswap-heuristic", str(src)])
            assert r.exit_code == 0, r.output
        assert len(calls) == 6  # the six class words, for the first request only

    def test_gatesets_do_not_accumulate(self):
        import gc

        from recliff.gates import GateDef, GateSet

        def live() -> int:
            gc.collect()
            return sum(isinstance(o, (GateDef, GateSet)) for o in gc.get_objects())

        source = parse(FAN_OUT_TEXT)
        compile_with_iswap_heuristic(source, builtin_gateset("iswap"))
        before = live()
        for _ in range(50):
            compile_with_iswap_heuristic(source, builtin_gateset("iswap"))
        assert live() <= before
