#!/usr/bin/env python3
"""recliff benchmark: compile and verify requests through the CLI, checked
by an independent oracle.

    python3 perfbench/run.py --workload surface_d25 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, one table

Each workload is one process running a closed loop, one client, no threads:
a request goes to the ``recliff`` click entry point in-process only after the
previous one finished, and the oracle checks every result between requests,
outside the timed region.  Run from a checkout: the program is imported from
``src/`` next to this directory, and files are written under
``.perfbench_out/``.  The last line of standard output is one JSON object;
the readable report goes to standard error.  With ``--trace 1`` the run
reports per-layer metrics instead (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import inputs  # noqa: E402
import spans  # noqa: E402  (this directory is on sys.path when run as a script)
from probe import REF_S, SpeedProbe  # noqa: E402
import workloads  # noqa: E402
from workloads import Failure  # noqa: E402

WORKLOADS = {w.name: w for w in (workloads.SurfaceD25, workloads.RandomBatch, workloads.VerifyMix)}
SETUP_REPEATS = 7
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import recliff, recliff.cli
from recliff.gates import builtin_gateset
for target, natives in json.loads(sys.argv[1]):
    builtin_gateset(target, natives)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from probe import SpeedProbe
probe = SpeedProbe("mixed")
probe.read(1)
print(setup, probe.read(5))
"""
UNITS = {
    "compile_s.p50": "s", "compile_s.tail": "s", "circuits_per_s": "1/s",
    "verify_s.p50": "s", "verify_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "out_1q_gates": "1q/src_2q", "out_depth": "depth/src_depth",
}


def measure_setup(gatesets) -> tuple[float, float]:
    """Median time to import recliff and its CLI and build the workload's
    gatesets, each time in a fresh interpreter: (scaled, raw).

    Each child reads the probe right after its imports and scales its own
    time.  A probe in the parent, after waiting on the child, does not track
    import time (eight repeats spread 16% scaled against 11% raw); the
    child's own probe does (13% against 33%).
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(gatesets), str(HERE)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        setup, probe = map(float, done.stdout.split()[-2:])
        scaled.append(setup * REF_S / probe)
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


class Client:
    """Sends requests to the CLI and checks them; collects what the metrics need."""

    def __init__(self, cli_main, probe_profile: str):
        self.cli_main = cli_main
        self.probe = SpeedProbe(probe_profile)
        self.tracer: spans.Tracer | None = None
        self.latency = {"compile": [], "verify": []}   # scaled by the probe
        self.raw = {"compile": [], "verify": []}
        self.kinds: list[str] = []
        self.factors: list[float] = []                 # per traced request
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: list[dict] = []

    def request(self, argv: list[str]) -> tuple[int, str, float]:
        """Exit code, standard output and latency of one CLI invocation."""
        main = self.cli_main.main
        if self.tracer is not None:
            main = self.tracer.span("cli", main)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(argv, prog_name="recliff", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return code, out.getvalue(), time.perf_counter() - start

    def run(self, job: workloads.Job, keep_quality: bool) -> None:
        self.attempted += 1
        try:
            if job.before is not None:
                job.before()
            before = self.probe.refresh()
            if self.tracer is not None:
                self.tracer.request = len(self.kinds)
                self.kinds.append(job.kind)
            code, stdout, latency = self.request(job.argv)
            # Re-probes only after a long request, whose speed may have drifted.
            factor = (before + self.probe.refresh()) / 2
            if self.tracer is not None:
                self.factors.append(factor)
            kind = "verify" if job.kind == "verify" else "compile"
            self.latency[kind].append(latency * factor)
            self.raw[kind].append(latency)
            record = job.check(code, stdout)
            if keep_quality and record is not None:
                self.quality.append(record)
        except Failure as exc:
            self.failures.append(str(exc))
        except Exception:  # the loop must go on; the traceback is reported
            self.failures.append(traceback.format_exc(limit=3))

    def run_cycles(self, wl, seconds: float, min_cycles: int) -> int:
        """Whole cycles until the next one would overrun ``seconds``."""
        start = time.perf_counter()
        k = 0
        last = 0.0
        while k < min_cycles or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            for job in wl.cycle(k):
                self.run(job, k < wl.quality_cycles)
            last = time.perf_counter() - t0
            k += 1
        return k


def tail(values: list[float], pct: int) -> float:
    if pct == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps(r["digest"]).encode())
    return h.hexdigest()


def code_hash() -> str:
    """Hash of the program and of this benchmark, which picks the inputs."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "recliff").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(key: str, value: str) -> str | None:
    """Compare with an earlier run of the same code and seed, if any."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, value) != value:
        return f"output digest {value[:16]} differs from {known[key][:16]} of an earlier run"
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return None


def warm_up(client: Client, wl, work: Path) -> None:
    """One tiny request per gateset, so lazy set-up is not timed."""
    src = workloads.Source(work / "warm.stim", inputs.random_circuit(random.Random(0), 4, 2, "CX"))
    for target, natives in wl.gatesets:
        job = workloads.compile_job(src, target, natives, swap_insertion=target == "iswap")
        client.request(job.argv)
    client.request(["verify", str(src.path), str(src.path), "--up-to-frame", "--up-to-permutation"])


def end_to_end(client: Client, wl, setup_s: float) -> tuple[dict, list[str]]:
    compiles, verifies = client.latency["compile"], client.latency["verify"]
    q = client.quality
    values = {
        "compile_s.p50": statistics.median(compiles),
        "compile_s.tail": tail(compiles, wl.tail["compile"]),
        "circuits_per_s": len(compiles) / sum(compiles),
        "verify_s.p50": statistics.median(verifies),
        "verify_s.tail": tail(verifies, wl.tail["verify"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "out_1q_gates": sum(r["out_1q"] for r in q) / sum(r["src_2q"] for r in q),
        "out_depth": sum(r["out_depth"] for r in q) / sum(r["src_depth"] for r in q),
    }
    notes = []
    for kind, xs in (("compile", compiles), ("verify", verifies)):
        pct = wl.tail[kind]
        beyond = sum(1 for x in xs if x > tail(xs, pct))
        notes.append(f"{kind}_s.tail is p{pct} of {len(xs)} samples, {beyond} beyond it")
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, notes


def run_workload(args) -> int:
    if not (SRC / "recliff" / "__init__.py").is_file():
        print(f"no recliff sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import recliff.cli

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    client = Client(recliff.cli, cls.probe_profile)
    setup_s, setup_raw = (0.0, 0.0) if args.trace else measure_setup(cls.gatesets)
    if cls is workloads.VerifyMix:
        wl = cls(args.seed, work, lambda argv: client.request(argv)[:2])
    else:
        wl = cls(args.seed, work)
    warm_up(client, wl, work)

    if not args.trace:
        cycles = client.run_cycles(wl, args.seconds, wl.quality_cycles)
        metrics, notes = end_to_end(client, wl, setup_s)
    else:
        cycles = client.run_cycles(wl, args.seconds / 2, wl.quality_cycles)
        untraced = sum(map(sum, client.latency.values()))
        first = list(client.quality)
        client.latency = {"compile": [], "verify": []}
        client.tracer = tracer = spans.Tracer()
        tracer.install()
        try:
            for k in range(cycles):
                for job in wl.cycle(k):
                    client.run(job, k < wl.quality_cycles)
        finally:
            tracer.uninstall()
        traced = sum(map(sum, client.latency.values()))
        if digest(client.quality[len(first):]) != digest(first):
            client.failures.append("traced and untraced passes gave different outputs")
        client.quality = first
        tracer.write(work / "trace.jsonl")
        values, self_s = spans.layer_metrics(tracer, client.kinds, client.factors)
        values["trace.overhead_pct"] = (100 * (traced - untraced) / untraced, "%")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        notes = [f"traced {len(client.kinds)} requests over {cycles} cycles; self time by layer:"]
        notes += [f"  {layer:<28} {s:10.4f} s" for layer, s in
                  sorted(self_s.items(), key=lambda kv: -kv[1])]
        notes += [f"  not traced (missing in the program): {m}" for m in tracer.missing]

    out_digest = digest(client.quality)
    client.attempted += 1
    problem = check_digest(f"{args.workload}/{args.seed}/{code_hash()}", out_digest)
    if problem:
        client.failures.append(problem)
    if isinstance(wl, workloads.VerifyMix):
        (work / "corpus.json").write_text(json.dumps(wl.corpus, indent=1) + "\n")

    failed = len(client.failures)
    report = [f"{args.workload} seed={args.seed} cycles={cycles} attempted={client.attempted} "
              f"failed={failed} failed_ratio={failed / client.attempted:.4f}",
              f"output digest (first {wl.quality_cycles} cycles): {out_digest}"]
    report += [f"  {name:<38} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    probes = client.probe.samples
    report.append(f"times scaled to a {1000 * REF_S:g} ms probe; probe median "
                  f"{1000 * statistics.median(probes):.2f} ms (min {1000 * min(probes):.2f}, "
                  f"max {1000 * max(probes):.2f}) over {len(probes)} probes")
    for kind, xs in client.raw.items():
        if xs:
            report.append(f"  raw {kind}_s.p50 {statistics.median(xs):.6g} s over {len(xs)} requests")
    if setup_raw:
        report.append(f"  raw setup_s {setup_raw:.6g} s")
    report += notes + [f"FAILED: {f}" for f in client.failures[:20]]
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": client.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows = []
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return done.returncode
        rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_ratio={result['failed'] / result['attempted']:.4f}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<38} {m['value']:.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
