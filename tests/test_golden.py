"""Golden output: the compiled text, frame and permutation of a fixed corpus.

Refactors of the pipeline must leave every emitted byte unchanged.  The digest
below covers 540 compiles through ``compile_with_iswap_heuristic`` (so sources
of the other entangler class take the swap-insertion mode): surface-code
rounds at d = 3 and 5 plus 25 seeded random circuits over both entangler
classes, onto every target with both native sets, under ``report`` and
``fold``.  A change that alters output on purpose must say why and record the
new digest.
"""

import hashlib

from recliff import (
    RandomCircuitSpec,
    SurfaceCodeSpec,
    builtin,
    builtin_gateset,
    compile_with_iswap_heuristic,
    emit,
    random_clifford_circuit,
    surface_code_syndrome_extraction,
)
from recliff.gates import NATIVE_SETS, TARGET_ENTANGLERS

GOLDEN_DIGEST = "11823098c5d938409f8ef0505a61718b8d42c3719371d9346b276c350eb76c61"

SOURCE_ENTANGLERS = ("CX", "CZ", "SQRT_XX", "ECR", "ISWAP", "CXSWAP", "CZSWAP")


def golden_sources():
    sources = [surface_code_syndrome_extraction(SurfaceCodeSpec(d)) for d in (3, 5)]
    for seed in range(25):
        sources.append(random_clifford_circuit(RandomCircuitSpec(
            n=2 + seed % 9,
            entangler_layers=1 + seed % 7,
            seed=7000 + seed,
            entangler=builtin(SOURCE_ENTANGLERS[seed % len(SOURCE_ENTANGLERS)]),
        )))
    return sources


def golden_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    compiles = 0
    for source in golden_sources():
        for target in sorted(TARGET_ENTANGLERS):
            for natives in sorted(NATIVE_SETS):
                gs = builtin_gateset(target, natives)
                for frame_mode in ("report", "fold"):
                    res = compile_with_iswap_heuristic(source, gs, frame_mode=frame_mode)
                    for part in (emit(res.circuit), str(res.frame), repr(res.permutation)):
                        h.update(part.encode())
                        h.update(b"\0")
                    compiles += 1
    return h.hexdigest(), compiles


def test_compiled_corpus_is_byte_identical():
    digest, compiles = golden_digest()
    assert compiles == 540
    assert digest == GOLDEN_DIGEST
