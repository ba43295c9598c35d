"""The three workloads, as deterministic cycles of CLI requests.

A workload is built from the seed and a work directory.  ``cycle(k)`` returns
the k-th cycle of jobs; the same seed and k always give the same inputs.  Each
job is one ``recliff`` command line plus untimed client work: ``before``
prepares inputs that depend on earlier outputs, ``check`` compares the result
with the oracle or with the known answer and raises :class:`Failure`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import oracle

ENTANGLER = {"cx": "CX", "cz": "CZ", "sqrt_xx": "SQRT_XX", "ecr": "ECR", "iswap": "ISWAP"}
# README: s_sx is S and sqrt(X); class6 is the six basis-change gates.
NATIVES = {"s_sx": {"S", "SQRT_X"},
           "class6": {"I", "H", "H_XY", "H_YZ", "C_XYZ", "C_ZYX"}}


class Failure(Exception):
    """A wrong exit code, a wrong verdict or an oracle disagreement."""


@dataclass
class Job:
    kind: str                      # "compile", "compile_iswap" or "verify"
    argv: list[str] = field(default_factory=list)
    before: Callable[[], None] | None = None
    check: Callable[[int, str], dict | None] | None = None


class Source:
    """An input circuit file and its oracle tableau, built on first use."""

    def __init__(self, path: Path, circuit: oracle.Circuit):
        self.path = path
        self.circuit = circuit
        self._tableau = None
        path.write_text(oracle.emit(circuit))

    @property
    def tableau(self) -> oracle.Tableau:
        if self._tableau is None:
            self._tableau = oracle.simulate(self.circuit)
        return self._tableau


def _entangler_layers(c: oracle.Circuit) -> list[list[tuple[int, ...]]]:
    layers = [sorted(qs for _, qs in layer if len(qs) == 2) for layer in c.layers]
    return [layer for layer in layers if layer]


def _expected_entanglers(src: oracle.Circuit, swap_insertion: bool):
    """Entangler layers the output must have, and the final wire relabelling.

    In swap-insertion mode each entangler is followed by a virtual SWAP that is
    removed by renaming every later use of the two wires.
    """
    label = list(range(src.n))
    layers = []
    for layer in _entangler_layers(src):
        layers.append(sorted(tuple(label[q] for q in qs) for qs in layer))
        if swap_insertion:
            for a, b in layer:
                label[a], label[b] = label[b], label[a]
    return layers, label


def check_compile(src: Source, out: Path, meta: Path, target: str, natives: str,
                  frame: str, swap_insertion: bool) -> dict:
    """The four oracle checks of one compile; returns its quality record."""
    text = out.read_text()
    md = json.loads(meta.read_text())
    c = oracle.parse(text, src.circuit.n)
    allowed = NATIVES[natives] | {ENTANGLER[target]}
    last = len(c.layers) - 1
    for li, layer in enumerate(c.layers):
        for name, _ in layer:
            folded = frame == "fold" and li == last and name in ("X", "Y", "Z")
            if name not in allowed and not folded:
                raise Failure(f"{name} is not in the {target}/{natives} gateset")
    src_2q = sum(1 for _, qs in src.circuit.instructions() if len(qs) == 2)
    out_2q = sum(1 for _, qs in c.instructions() if len(qs) == 2)
    if out_2q != src_2q:
        raise Failure(f"two-qubit count changed: {src_2q} -> {out_2q}")
    want_layers, want_perm = _expected_entanglers(src.circuit, swap_insertion)
    if _entangler_layers(c) != want_layers:
        raise Failure("entangler pairs changed")
    perm = md["permutation"]
    if perm != want_perm:
        raise Failure(f"reported permutation {perm} is not the virtual-swap relabelling")
    t = oracle.simulate(c)
    if frame == "report":
        oracle.apply_frame(t, md["frame"])
    if not oracle.equal_relabelled(t, src.tableau, perm, signs=True):
        raise Failure(f"output with frame {md['frame']} differs from the source")
    return {
        "out_1q": sum(1 for _, qs in c.instructions() if len(qs) == 1),
        "out_depth": len(c.layers),
        "src_2q": src_2q,
        "src_depth": len(src.circuit.layers),
        "digest": [text, md["frame"], perm],
    }


def compile_job(src: Source, target: str, natives: str = "s_sx", frame: str = "report",
                swap_insertion: bool = False) -> Job:
    out = src.path.with_suffix(f".{target}.stim")
    meta = src.path.with_suffix(f".{target}.json")
    argv = ["compile", "--target", target, "--natives", natives, "--frame", frame,
            str(src.path), "-o", str(out), "--metadata", str(meta)]
    if swap_insertion:
        argv.append("--iswap-heuristic")

    def check(code: int, stdout: str) -> dict:
        if code != 0:
            raise Failure(f"compile exited {code}")
        return check_compile(src, out, meta, target, natives, frame, swap_insertion)

    return Job("compile_iswap" if swap_insertion else "compile", argv, check=check)


def verify_job(a: Path, b: Path, flags: list[str], expected_exit: int) -> Job:
    verdict = "equivalent" if expected_exit == 0 else "not equivalent"

    def check(code: int, stdout: str) -> None:
        if code != expected_exit or not stdout.startswith(verdict):
            raise Failure(f"verify {a.name} {b.name}: exit {code} {stdout[:40]!r}, "
                          f"expected exit {expected_exit} ({verdict})")

    return Job("verify", ["verify", str(a), str(b), *flags], check=check)


# ---------------------------------------------------------------------------


class SurfaceD25:
    """d = 25 round compiled to ecr, sqrt_xx and iswap; the first two
    outputs verified up to frame."""

    name = "surface_d25"
    gatesets = (("ecr", "s_sx"), ("sqrt_xx", "s_sx"), ("iswap", "s_sx"))
    probe_profile = "large"
    quality_cycles = 1
    # A run holds 9-12 compiles and 6-8 verifies, too few for any tail with
    # ten samples beyond it, so the tail is the median; the count is reported.
    tail = {"compile": 50, "verify": 50}

    def __init__(self, seed: int, work: Path):
        self.src = Source(work / "d25.stim", inputs.surface_code_round(25, seed))

    def cycle(self, k: int) -> list[Job]:
        jobs = [compile_job(self.src, t, swap_insertion=t == "iswap")
                for t in ("ecr", "sqrt_xx", "iswap")]
        for t in ("ecr", "sqrt_xx"):
            out = self.src.path.with_suffix(f".{t}.stim")
            jobs.append(verify_job(out, self.src.path, ["--up-to-frame"], 0))
        return jobs


class RandomBatch:
    """Fresh small random circuits, cycling through every target option."""

    name = "random_batch"
    gatesets = tuple((t, n) for t in ENTANGLER for n in NATIVES)
    probe_profile = "mixed"
    quality_cycles = 4
    tail = {"compile": 95, "verify": 95}
    TARGETS = ("cx", "cz", "sqrt_xx", "ecr")
    SWAP_INSERTION = (("s_sx", "report"), ("class6", "fold"),
                      ("class6", "report"), ("s_sx", "fold"))

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def cycle(self, k: int) -> list[Job]:
        """16 standard compiles (4 targets x 2 native sets x 2 frame modes),
        two swap-insertion compiles onto iswap, and verifies of the outputs
        of 8 standard compiles, two per target, covering every option."""
        rng = random.Random(f"random_batch/{self.seed}/{k}")
        jobs = []
        for pos in range(18):
            circuit = inputs.random_circuit(
                rng, rng.randrange(8, 25, 2), rng.randint(10, 20), rng.choice(("CX", "CZ")))
            src = Source(self.work / f"rb{pos}.stim", circuit)
            if pos in (8, 17):
                natives, frame = self.SWAP_INSERTION[(2 * k + pos // 9) % 4]
                jobs.append(compile_job(src, "iswap", natives, frame, swap_insertion=True))
                continue
            c = pos - (pos > 8)
            target, frame = self.TARGETS[c % 4], ("report", "fold")[c // 8]
            jobs.append(compile_job(src, target, ("s_sx", "class6")[c // 4 % 2], frame))
            if (c + c // 4) % 2 == 0:
                out = src.path.with_suffix(f".{target}.stim")
                flags = ["--up-to-frame"] if frame == "report" else []
                jobs.append(verify_job(out, src.path, flags, 0))
        return jobs


class VerifyMix:
    """Known-answer verify requests: up to a permutation on small swap-
    insertion outputs (half mutated), and up to a frame at d = 25."""

    name = "verify_mix"
    gatesets = (("iswap", "s_sx"), ("iswap", "class6"), ("ecr", "s_sx"))
    probe_profile = "mixed"
    quality_cycles = 8
    tail = {"compile": 75, "verify": 75}
    ENTANGLER_LAYERS = 12

    def __init__(self, seed: int, work: Path, run_request):
        self.seed = seed
        self.work = work
        self.corpus: list[dict] = []
        self.src25 = Source(work / "d25.stim", inputs.surface_code_round(25, seed))
        # The d = 25 ecr output is corpus preparation, not a measured request.
        job = compile_job(self.src25, "ecr")
        code, stdout = run_request(job.argv)
        job.check(code, stdout)
        self.out25 = self.src25.path.with_suffix(".ecr.stim")
        self.mutant25 = work / "d25.ecr.mutant.stim"
        self._write_mutant(self.out25, self.mutant25, self.src25,
                           random.Random(f"verify_mix/{seed}/d25"), permutation=False)

    def _write_mutant(self, out: Path, dest: Path, src: Source, rng: random.Random,
                      permutation: bool) -> None:
        """First seeded single-gate mutant that the oracle finds inequivalent."""
        for text in inputs.mutants(out.read_text(), rng):
            t = oracle.simulate(oracle.parse(text, src.circuit.n))
            if permutation:
                inequivalent = oracle.permutation_up_to_frame(t, src.tableau) is None
            else:
                inequivalent = not oracle.equivalent_up_to_frame(t, src.tableau)
            if inequivalent:
                dest.write_text(text)
                return
        raise Failure(f"no single-gate mutant of {out.name} is inequivalent")

    def _pair_verify(self, k: int, p: int, src: Source, mutated: bool) -> Job:
        out = src.path.with_suffix(".iswap.stim")
        cand = src.path.with_suffix(".iswap.mutant.stim") if mutated else out
        job = verify_job(cand, src.path, ["--up-to-frame", "--up-to-permutation"],
                         1 if mutated else 0)

        def before() -> None:
            if mutated:
                self._write_mutant(out, cand, src, random.Random(f"verify_mix/{self.seed}/{k}/{p}/m"),
                                   permutation=True)
            self._record(k, p, job, src.circuit.n, 1 if mutated else 0)

        job.before = before
        return job

    def _record(self, k: int, p: int, job: Job, n: int, expected_exit: int) -> None:
        self.corpus.append({"cycle": k, "pair": p, "n": n, "argv": job.argv[1:],
                            "expected_exit": expected_exit,
                            "verdict": "equivalent" if expected_exit == 0 else "not equivalent"})

    def cycle(self, k: int) -> list[Job]:
        """Six small pairs (n = 6, 7, 8, as-is then mutated), each compiled
        onto iswap and verified up to frame and permutation, then one d = 25
        verify up to frame, alternating as-is and mutated."""
        jobs = []
        for p in range(6):
            rng = random.Random(f"verify_mix/{self.seed}/{k}/{p}")
            circuit = inputs.random_circuit(rng, (6, 7, 8)[p % 3], self.ENTANGLER_LAYERS,
                                            rng.choice(("CX", "CZ")))
            src = Source(self.work / f"vm{p}.stim", circuit)
            jobs.append(compile_job(src, "iswap", ("s_sx", "class6")[p % 2], swap_insertion=True))
            jobs.append(self._pair_verify(k, p, src, mutated=p >= 3))
        expected_exit = k % 2
        d25 = verify_job(self.mutant25 if expected_exit else self.out25, self.src25.path,
                         ["--up-to-frame"], expected_exit)
        d25.before = lambda: self._record(k, 6, d25, self.src25.circuit.n, expected_exit)
        jobs.append(d25)
        return jobs
