"""Tests of the benchmark's oracle and checks (not part of the repository's suite).

    python3 -m pytest perfbench/test_oracle.py -q

The oracle is cross-checked against literal dense-matrix conjugation for
n <= 4; the compile checker must reject broken outputs; and the output digest
must not depend on Python's hash seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

GATES_1Q = [g for g, r in oracle.RULES.items() if r.arity == 1]
GATES_2Q = [g for g, r in oracle.RULES.items() if r.arity == 2]


def embed(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Dense operator of a gate on ``qubits`` of n, qubit 0 most significant."""
    k = len(qubits)
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for col in range(2 ** n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub = sum(bits[q] << (k - 1 - i) for i, q in enumerate(qubits))
        for out_sub in range(2 ** k):
            row_bits = list(bits)
            for i, q in enumerate(qubits):
                row_bits[q] = (out_sub >> (k - 1 - i)) & 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(row_bits))
            full[row, col] += u[out_sub, sub]
    return full


def unitary(c: oracle.Circuit) -> np.ndarray:
    u = np.eye(2 ** c.n, dtype=complex)
    for name, qubits in c.instructions():
        u = embed(oracle.UNITARIES[name], qubits, c.n) @ u
    return u


def random_any(rng: random.Random, n: int, depth: int) -> oracle.Circuit:
    layers = []
    for _ in range(depth):
        free = list(range(n))
        rng.shuffle(free)
        layer = []
        while free:
            if len(free) >= 2 and rng.random() < 0.5:
                layer.append((rng.choice(GATES_2Q), (free.pop(), free.pop())))
            else:
                layer.append((rng.choice(GATES_1Q), (free.pop(),)))
        layers.append(layer)
    return oracle.Circuit(n, layers)


def is_pauli_up_to_phase(m: np.ndarray, n: int) -> bool:
    for letters in map("".join, itertools.product("IXYZ", repeat=n)):
        overlap = np.trace(oracle.pauli_matrix(letters).conj().T @ m) / 2 ** n
        if abs(abs(overlap) - 1) < 1e-9:
            return True
    return False


@pytest.mark.parametrize("name,letters,image", [
    ("H", "X", (1, "Z")), ("S", "X", (1, "Y")), ("SQRT_X", "Z", (-1, "Y")),
    ("C_XYZ", "X", (1, "Y")), ("C_XYZ", "Z", (1, "X")), ("C_ZYX", "X", (1, "Z")),
    ("H_XY", "Z", (-1, "Z")), ("H_YZ", "X", (-1, "X")),
    ("CX", "XI", (1, "XX")), ("CX", "IZ", (1, "ZZ")), ("CZ", "XI", (1, "XZ")),
    ("ISWAP", "XI", (1, "ZY")), ("SQRT_XX", "ZI", (-1, "YX")),
    ("CXSWAP", "XI", (1, "XX")), ("CXSWAP", "ZI", (1, "IZ")),
    ("ECR", "XI", (-1, "YX")), ("ECR", "IZ", (1, "ZY")),
])
def test_gate_table_matches_dialect(name, letters, image):
    assert oracle.conjugate_pauli(oracle.UNITARIES[name], letters) == image


@pytest.mark.parametrize("seed", range(40))
def test_tableau_matches_dense_conjugation(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    c = random_any(rng, n, rng.randint(1, 8))
    t = oracle.simulate(c)
    u = unitary(c)
    for g in range(2 * n):
        letters = "".join("X" if (g == 2 * q) else "Z" if (g == 2 * q + 1) else "I"
                          for q in range(n))
        sign, image = t.image(g)
        dense = u @ oracle.pauli_matrix(letters) @ u.conj().T
        assert np.allclose(dense, sign * oracle.pauli_matrix(image)), (g, c.layers)


@pytest.mark.parametrize("seed", range(20))
def test_frame_and_permutation_against_dense(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    c = random_any(rng, n, 5)
    base = oracle.simulate(c)

    frame = "+" + "*".join(f"{rng.choice('XYZ')}{q}" for q in range(n))
    framed = oracle.simulate(c)
    oracle.apply_frame(framed, frame)
    assert oracle.equivalent_up_to_frame(framed, base)
    assert oracle.equal_relabelled(framed, base, range(n), signs=False)

    # A wire relabelling realised by SWAPs after the circuit.
    sigma = list(range(n))
    rng.shuffle(sigma)
    label = list(range(n))   # label[q]: wire currently holding q's content
    swaps = []
    for q in range(n):
        w = label.index(q)
        if w != sigma[q]:
            other = label[sigma[q]]
            swaps.append([("SWAP", (w, sigma[q]))])
            label[w], label[sigma[q]] = other, q
    moved = oracle.Circuit(n, c.layers + swaps)
    assert oracle.permutation_up_to_frame(oracle.simulate(moved), base) == tuple(sigma)
    assert oracle.equal_relabelled(oracle.simulate(moved), base, sigma, signs=True)


@pytest.mark.parametrize("seed", range(15))
def test_mutants_are_inequivalent_by_dense_check(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    c = oracle.Circuit(n, [[(rng.choice(("S", "SQRT_X")), (q,)) for q in range(n)],
                           [("CX", (0, 1))], [("S", (0,)), ("SQRT_X", (1,))]])
    u = unitary(c)
    for text in inputs.mutants(oracle.emit(c), rng):
        m = oracle.parse(text, n)
        dense_equivalent = is_pauli_up_to_phase(unitary(m).conj().T @ u, n)
        assert not dense_equivalent
        assert not oracle.equivalent_up_to_frame(oracle.simulate(m), oracle.simulate(c))


def test_surface_code_size():
    c = inputs.surface_code_round(25, 0)
    assert c.n == 1249
    assert sum(1 for _ in c.instructions()) == 3024
    assert oracle.parse(oracle.emit(c)).layers == c.layers


# ---------------------------------------------------------------------------
# The compile checker against real recliff output


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(HERE.parent / "src"))
    import recliff.cli
    return recliff.cli.main


def run_cli(main, argv) -> int:
    try:
        main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    return 0


@pytest.mark.parametrize("target,swap_insertion,frame", [
    ("ecr", False, "report"), ("sqrt_xx", False, "fold"), ("iswap", True, "report"),
])
def test_checker_accepts_and_rejects(cli, tmp_path, target, swap_insertion, frame):
    src = workloads.Source(tmp_path / "src.stim",
                           inputs.random_circuit(random.Random(3), 6, 6, "CX"))
    job = workloads.compile_job(src, target, "s_sx", frame, swap_insertion)
    assert job.check(run_cli(cli, job.argv), "")["src_2q"] == 18

    out = src.path.with_suffix(f".{target}.stim")
    meta = src.path.with_suffix(f".{target}.json")
    good_text, good_meta = out.read_text(), json.loads(meta.read_text())
    breakages = [
        ("text", next(inputs.mutants(good_text, random.Random(0)))),
        ("text", good_text.replace(workloads.ENTANGLER[target] + " ", "CZ ", 1)),
        ("text", good_text.replace("S ", "H ", 1)),
        ("meta", {**good_meta, "permutation": good_meta["permutation"][::-1]}),
    ]
    if frame == "report":
        breakages.append(("meta", {**good_meta, "frame": "+Z0"}))
    for kind, bad in breakages:
        out.write_text(good_text if kind == "meta" else bad)
        meta.write_text(json.dumps(good_meta if kind == "text" else bad))
        with pytest.raises(workloads.Failure):
            job.check(0, "")


# ---------------------------------------------------------------------------
# Determinism of the emitted outputs


@pytest.mark.parametrize("workload", ["random_batch", "verify_mix", "surface_d25"])
def test_digest_independent_of_hash_seed(workload):
    digests = set()
    for hash_seed in ("0", "1", "12345"):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "0"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True,
            timeout=170)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1])["correct"], done.stderr
        digests |= {line.split()[-1] for line in done.stderr.splitlines()
                    if line.startswith("output digest")}
    assert len(digests) == 1
