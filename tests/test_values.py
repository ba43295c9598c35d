"""Behaviour of the package's immutable value classes: construction, equality,
hashing, immutability and repr, class by class."""

import copy
import pickle

import pytest

from recliff import (
    Circuit, CompilationResult, GateDef, GateSet, Instruction, PauliProduct, RandomCircuitSpec,
    SurfaceCodeSpec, builtin, compare, report,
)


def _circuit():
    return Circuit(2, ((Instruction(builtin("CX"), (0, 1)),), (Instruction(builtin("H"), (1,)),)))


# Each factory builds a new instance equal to the last one it built.
FACTORIES = {
    "PauliProduct": lambda: PauliProduct(2, x=1, z=3, sign=-1),
    "Instruction": lambda: Instruction(gate=builtin("CX"), qubits=(1, 0)),
    "Circuit": _circuit,
    "GateSet": lambda: GateSet(name="ecr", entangler=builtin("ECR"),
                               single_qubit_natives=(builtin("S"), builtin("SQRT_X"))),
    "CompilationResult": lambda: CompilationResult(
        circuit=_circuit(), frame=PauliProduct(2, 1), stats=report(_circuit()), verified=True,
        permutation=(0, 1), gateset="cx", frame_mode="report"),
    "Report": lambda: report(_circuit()),
    "Comparison": lambda: compare(report(_circuit()), report(_circuit())),
    "SurfaceCodeSpec": lambda: SurfaceCodeSpec(distance=5),
    "RandomCircuitSpec": lambda: RandomCircuitSpec(n=4, entangler_layers=2, seed=7,
                                                   entangler=builtin("CZ")),
}
HOLDS_A_DICT = {"CompilationResult", "Report", "Comparison"}  # unhashable, as a dict is


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestValueClass:
    def test_equal_instances(self, name):
        a, b = FACTORIES[name](), FACTORIES[name]()
        assert a is not b and a == b and not a != b
        if name in HOLDS_A_DICT:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_other_classes_never_equal(self, name):
        a = FACTORIES[name]()
        for other_name, other in FACTORIES.items():
            if other_name != name:
                assert a != other() and other() != a
        assert a.__eq__(object()) is NotImplemented
        assert a != tuple(getattr(a, f) for f in type(a).__match_args__)

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        a = FACTORIES[name]()
        for field in type(a).__match_args__:
            value = getattr(a, field)
            with pytest.raises(AttributeError):
                setattr(a, field, value)
            with pytest.raises(AttributeError):
                delattr(a, field)
            assert getattr(a, field) is value

    def test_copies_are_equal(self, name):
        a = FACTORIES[name]()
        assert copy.copy(a) == a and copy.deepcopy(a) is not a
        assert copy.deepcopy(a) == a  # a gate copies to itself, as gates compare by identity

    def test_repr_names_every_field(self, name):
        a = FACTORIES[name]()
        fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in type(a).__match_args__)
        assert repr(a) == f"{name}({fields})"

    def test_positional_and_keyword_construction_agree(self, name):
        a = FACTORIES[name]()
        fields = type(a).__match_args__
        values = [getattr(a, f) for f in fields]
        assert type(a)(*values) == a
        assert type(a)(*values[:1], **dict(zip(fields[1:], values[1:]))) == a
        with pytest.raises(TypeError):
            type(a)(*values, values[0])
        with pytest.raises(TypeError):
            type(a)(*values, **{fields[0]: values[0]})
        with pytest.raises(TypeError):
            type(a)(*values, bogus=1)


def test_reprs():
    assert repr(PauliProduct(2, 1, 0, -1)) == "PauliProduct(n=2, x=1, z=0, sign=-1)"
    assert repr(Instruction(builtin("H"), (0,))) == "Instruction(gate=GateDef(H), qubits=(0,))"
    assert repr(SurfaceCodeSpec(5)) == "SurfaceCodeSpec(distance=5)"


def test_pickle_round_trip():
    """A builtin gate unpickles to the shared registry gate, so every value
    holding one comes back equal."""
    for name, factory in FACTORIES.items():
        a = factory()
        assert pickle.loads(pickle.dumps(a)) == a, name


def test_gates_copy_to_themselves_and_pickle_by_semantics():
    h = builtin("H")
    custom = GateDef("H2", 1, h.semantics)
    for gate in (h, custom):
        assert copy.copy(gate) is gate and copy.deepcopy(gate) is gate
    assert pickle.loads(pickle.dumps(h)) is h
    back = pickle.loads(pickle.dumps(custom))
    assert back is not custom  # a new gate, by identity another gate
    assert (back.name, back.arity, back.semantics) == ("H2", 1, h.semantics)


def test_pauli_product_defaults():
    assert PauliProduct(3) == PauliProduct(3, 0, 0, 1) == PauliProduct(n=3, sign=1)
    p = PauliProduct(3, z=4)
    assert (p.n, p.x, p.z, p.sign) == (3, 0, 4, 1)
    with pytest.raises(TypeError):
        PauliProduct()
    with pytest.raises(TypeError):
        SurfaceCodeSpec()
    with pytest.raises(TypeError, match="qubits"):  # a slot is no default
        Instruction(builtin("H"))


def test_sequences_are_stored_as_tuples():
    """A list where a tuple is expected is stored as a tuple, so the value
    hashes and equals the one built from the tuple."""
    built = {
        "Instruction": (Instruction(builtin("CX"), [1, 0]), FACTORIES["Instruction"]()),
        "GateSet": (GateSet("ecr", builtin("ECR"), [builtin("S"), builtin("SQRT_X")]),
                    FACTORIES["GateSet"]()),
    }
    for name, (from_list, from_tuple) in built.items():
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple), name
        assert all(type(getattr(from_list, f)) is type(getattr(from_tuple, f))
                   for f in type(from_list).__match_args__), name


def test_checks_run_on_keyword_construction():
    with pytest.raises(ValueError, match="sign"):
        PauliProduct(n=1, sign=0)
    with pytest.raises(ValueError, match="distance"):
        SurfaceCodeSpec(distance=4)
    with pytest.raises(ValueError, match="expects 2 qubits"):
        Instruction(gate=builtin("CX"), qubits=(0,))



WRONG_TYPES = {
    "Instruction.gate": lambda: Instruction("CX", (0, 1)),
    "GateSet.entangler": lambda: GateSet("x", "CX", ()),
    "GateSet.single_qubit_natives": lambda: GateSet("x", builtin("CX"), ("S",)),
    "Circuit.layers": lambda: Circuit(2, ((Instruction(builtin("H"), (0,)),), [3])),
}


@pytest.mark.parametrize("field", sorted(WRONG_TYPES))
def test_object_fields_of_the_wrong_type_raise_type_error(field):
    """A wrong object where a gate or an instruction belongs is a TypeError
    naming the field, not an AttributeError from deeper in the check."""
    with pytest.raises(TypeError, match=field):
        WRONG_TYPES[field]()
