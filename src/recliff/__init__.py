"""recliff: retarget Clifford circuits onto alternative native gatesets.

Stabilizer circuits written over {H, S, CX} rarely match what hardware
executes.  This package rewrites a unitary stabilizer circuit so that its
entangling gates become a chosen native two-qubit Clifford (CX, CZ, sqrt(XX),
ECR, or iSWAP via a swap-insertion mode).  The two-qubit count is preserved
exactly, one native entangler per source entangler; the single-qubit basis
changes the conjugation bookkeeping demands are chosen greedily per
entangler, so their count can exceed the minimum.  Equivalence is certified
by exact stabilizer-tableau comparison up to a reported Pauli frame.
"""

from .pauli import (
    Pauli,
    PauliProduct,
    commutes,
    support,
)
from .tableau import (
    Tableau,
    append_gate,
    certify,
    from_circuit,
    identity,
    pretty,
)
from .gates import (
    GateDef,
    GateSet,
    builtin,
    builtin_gateset,
    decompose_single_qubit,
)
from .circuit import (
    Circuit,
    Instruction,
    ParseError,
    depth,
    emit,
    expand_ecr,
    gate_counts,
    parse,
    two_qubit_count,
)
from .compiler import (
    CompilationResult,
    CompileError,
    VerificationError,
    compile_circuit,
    compile_with_iswap_heuristic,
    conjugation_lookup,
    extract_frame,
)
from .generators import (
    RandomCircuitSpec,
    SurfaceCodeSpec,
    random_clifford_circuit,
    surface_code_syndrome_extraction,
)
from .reporting import Comparison, Report, compare, report

# The only place the version is written. Keep it a plain string literal:
# pyproject.toml reads it statically, and `recliff --version` reports it.
__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CompilationResult",
    "CompileError",
    "Comparison",
    "GateDef",
    "GateSet",
    "Instruction",
    "ParseError",
    "Pauli",
    "PauliProduct",
    "RandomCircuitSpec",
    "Report",
    "SurfaceCodeSpec",
    "Tableau",
    "VerificationError",
    "append_gate",
    "builtin",
    "builtin_gateset",
    "certify",
    "commutes",
    "compare",
    "compile_circuit",
    "compile_with_iswap_heuristic",
    "conjugation_lookup",
    "decompose_single_qubit",
    "depth",
    "emit",
    "expand_ecr",
    "extract_frame",
    "from_circuit",
    "gate_counts",
    "identity",
    "parse",
    "pretty",
    "random_clifford_circuit",
    "report",
    "support",
    "surface_code_syndrome_extraction",
    "two_qubit_count",
]
