"""Command-line front end: compile, verify, generate, stats, compare.

Exit codes: 0 success (verify: equivalent), 1 verify found the circuits
inequivalent, 2 usage error, parse error, unreadable input or unwritable
output (a closed stdout too), 3 compilation error, size limit exceeded or
clashing arguments, 4 verification failure, 130 interrupted (Ctrl-C).  Paths
may be ``-`` for stdin/stdout; stdin can be read only once.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import stat
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__
from . import tableau as tb
from .circuit import Circuit, ParseError, _decimals, _widened, emit, parse
from .circuit import expand_ecr as _expand_ecr_transform
from .compiler import (FRAME_MODES, CompileError, VerificationError, compile_circuit,
                       compile_with_iswap_heuristic)
from .gates import NATIVE_SETS, TARGET_ENTANGLERS, builtin, builtin_gateset
from .generators import (RandomCircuitSpec, SurfaceCodeSpec, random_clifford_circuit,
                         surface_code_syndrome_extraction)
from .reporting import compare as compare_reports, report

EXIT_PARSE = 2
EXIT_COMPILE = 3
EXIT_VERIFY = 4

#: A tableau holds 4n^2 bits, n^2/2 bytes: 0.5 GiB at this many qubits for the one
#: tableau of a certificate's fallback, 1 GiB for an explained rejection's two.
DEFAULT_MAX_QUBITS = 32768

#: ``compile --show-tableau`` prints two tables of 2n^2 cells: about 6 MB of
#: text at this many qubits.  Larger inputs are refused before any tableau.
MAX_SHOWN_QUBITS = 512

#: Bound on qubits x (entangler layers + 1) for ``generate random-clifford``,
#: the number of gate slots its circuit may fill.
MAX_GENERATED_GATES = 2**20


def _fail(code: int, message: str) -> NoReturn:
    """Write one line to stderr and exit with ``code``."""
    print(message, file=sys.stderr, flush=True)
    sys.exit(code)


def _read_text(path: str) -> str:
    """The file's bytes, or stdin's, as strict UTF-8: no newline translation
    and no locale-dependent decoding, so a file and stdin read alike."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return data.decode("utf-8")


def _write_text(path: str | None, text: str) -> None:
    """Write stdout and flush it, or a file in place then cut to length (not atomic,
    not fsynced): truncating to zero first would make ext4 flush the file on close."""
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        data = text.encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest):]
            if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null cannot be cut
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        if path in (None, "-") and isinstance(exc, BrokenPipeError):
            # Send what stdout still buffers nowhere, so the flush at exit passes.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _fail(EXIT_PARSE, f"cannot write {path or '-'}: {exc.strerror or exc}")


def _stdin_once(paths: tuple[str, ...]) -> None:
    """Exit before any input is read if ``-`` (stdin) is given twice."""
    if paths.count("-") > 1:
        _fail(EXIT_COMPILE, "stdin (-) can be given as only one input")


def _batch_outputs(inputs: tuple[str, ...], target: str) -> list[str]:
    """Name each batch output before any input is read; exit on a clash."""
    try:
        outs = [str(Path(path).with_suffix(f".{target}.stim")) for path in inputs]
    except ValueError as exc:
        _fail(EXIT_COMPILE, f"cannot name a batch output: {exc}")
    claimed = {os.path.realpath(path): f"input {path}" for path in inputs}
    for path, out in zip(inputs, outs):
        real = os.path.realpath(out)
        if real in claimed:
            _fail(EXIT_COMPILE, f"{path} -> {out} would overwrite {claimed[real]}")
        claimed[real] = f"the output of {path}"
    return outs


def _shown(count: int) -> int | str:
    """A count for a message: Python may refuse to write a huge one (4,300 digits)."""
    return count if count < 2**64 else "2^64 or more"


def _size_guard(n: int) -> None:
    """``ValueError`` before any gate is built if a generated circuit is too large."""
    if n > DEFAULT_MAX_QUBITS:
        raise ValueError(f"{_shown(n)} qubits exceeds the limit of {DEFAULT_MAX_QUBITS}")


def _load_circuit(path: str, max_qubits: int | None = None) -> Circuit:
    try:
        circuit = parse(_read_text(path))
    except ParseError as exc:
        _fail(EXIT_PARSE, f"parse error in {path}: {exc}")
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(EXIT_PARSE, f"cannot read {path}: not valid UTF-8 at byte {exc.start}")
    if max_qubits is not None and circuit.n > max_qubits:
        _fail(EXIT_COMPILE,
              f"{path}: {_shown(circuit.n)} qubits exceeds --max-qubits {max_qubits}")
    return circuit


def _metadata_json(meta: dict) -> str:
    """``json.dumps(meta, indent=2)`` and a newline, with the n-entry permutation
    written from the qubit text table: ``indent`` makes the encoder walk each
    entry in Python."""
    permutation = meta["permutation"]
    text = json.dumps({**meta, "permutation": []}, indent=2) + "\n"
    if not permutation:
        return text
    entries = ",\n    ".join(_decimals(permutation, len(permutation)))
    return text.replace('\n  "permutation": []', f'\n  "permutation": [\n    {entries}\n  ]', 1)


def cmd_compile(inputs, target, natives, frame_mode, iswap_heuristic,
                expand_ecr, show_tableau, output, metadata_path, max_qubits):
    """Compile circuit files onto the target gateset."""
    _stdin_once(inputs)
    if len(inputs) > 1 and "-" in inputs:
        _fail(EXIT_COMPILE, "stdin (-) can only be compiled as the single input")
    for option, value in (("--output", output), ("--metadata", metadata_path)):
        if len(inputs) > 1 and value is not None:
            _fail(EXIT_COMPILE, f"{option} is only valid with a single input")
    if metadata_path == "-" and output in (None, "-"):
        _fail(EXIT_COMPILE,
              "--metadata - needs --output to name a file: both would go to stdout")
    if (output not in (None, "-") and metadata_path not in (None, "-")
            and os.path.realpath(output) == os.path.realpath(metadata_path)):
        _fail(EXIT_COMPILE, f"--output and --metadata name the same file: {output}")
    outs = _batch_outputs(inputs, target) if len(inputs) > 1 else [output]
    gs = builtin_gateset(target, natives)
    sources = [(path, _load_circuit(path, max_qubits)) for path in inputs]
    for path, source in sources:
        if show_tableau and source.n > MAX_SHOWN_QUBITS:
            _fail(EXIT_COMPILE, f"{path}: {source.n} qubits exceeds the --show-tableau "
                                f"limit of {MAX_SHOWN_QUBITS}")

    compile_one = compile_with_iswap_heuristic if iswap_heuristic else compile_circuit
    try:
        results = [
            (path, source, compile_one(source, gs, frame_mode=frame_mode))
            for path, source in sources
        ]
    except VerificationError as exc:
        _fail(EXIT_VERIFY, f"verification failure: {exc}")
    except (CompileError, ValueError) as exc:
        _fail(EXIT_COMPILE, f"compilation error: {exc}")

    for out, (path, source, result) in zip(outs, results):
        circuit = _expand_ecr_transform(result.circuit) if expand_ecr else result.circuit
        text = emit(circuit)
        if show_tableau:
            print(f"# source tableau ({path})\n{tb.pretty(tb.from_circuit(source))}\n"
                  f"# compiled tableau\n{tb.pretty(tb.from_circuit(result.circuit))}",
                  file=sys.stderr, flush=True)
        _write_text(out, text)
        if len(results) > 1:
            print(f"{path} -> {out}", file=sys.stderr, flush=True)
        if metadata_path is not None:
            meta = result.metadata(source)
            if expand_ecr:  # describe the circuit written, not the one certified
                stats = report(circuit)
                meta.update(output_counts=stats.counts, depth_out=stats.depth)
            _write_text(metadata_path, _metadata_json(meta))


def cmd_verify(file_a, file_b, up_to_frame, up_to_permutation, max_qubits):
    """Check tableau equivalence of two circuit files."""
    _stdin_once((file_a, file_b))
    a = _load_circuit(file_a, max_qubits)
    b = _load_circuit(file_b, max_qubits)
    if a.n != b.n:  # a wire that a circuit never touches carries the identity
        n = max(a.n, b.n)
        a, b = _widened(a, n), _widened(b, n)
    cert = tb.certify(a, b)
    if cert is not None:
        sigma, frame = cert
        if ((up_to_permutation or sigma == tuple(range(a.n)))
                and (up_to_frame or frame.is_identity())):
            witness = " and ".join(
                ([f"frame {frame}"] if up_to_frame else [])
                + ([f"permutation {list(sigma)}"] if up_to_permutation else []))
            _write_text(None, f"equivalent up to {witness}\n" if witness else "equivalent\n")
            sys.exit(0)
    diff = "" if up_to_permutation else ": " + tb.describe_difference(
        tb.from_circuit(a), tb.from_circuit(b), file_a, file_b)
    _write_text(None, f"not equivalent{diff}\n")
    sys.exit(1)


def cmd_generate_surface(distance, output):
    """One unitary syndrome-extraction round of the rotated surface code."""
    try:
        spec = SurfaceCodeSpec(distance)
        _size_guard(2 * distance * distance - 1)
        circuit = surface_code_syndrome_extraction(spec)
    except ValueError as exc:
        _fail(EXIT_COMPILE, f"error: {exc}")
    _write_text(output, emit(circuit))


def cmd_generate_random(qubits, layers, seed, entangler, output):
    """Seed-deterministic random Clifford circuit."""
    try:
        spec = RandomCircuitSpec(n=qubits, entangler_layers=layers, seed=seed,
                                 entangler=builtin(TARGET_ENTANGLERS[entangler]))
        _size_guard(qubits)
        if qubits * (layers + 1) > MAX_GENERATED_GATES:
            raise ValueError(f"{_shown(qubits)} qubits and {_shown(layers)} entangler "
                             f"layers exceed the limit of {MAX_GENERATED_GATES} gates")
        circuit = random_clifford_circuit(spec)
    except ValueError as exc:
        _fail(EXIT_COMPILE, f"error: {exc}")
    _write_text(output, emit(circuit))


def cmd_stats(input_path, fmt, output):
    """Gate-distribution report for a circuit file."""
    rep = report(_load_circuit(input_path))
    _write_text(output, rep.to_json() + "\n" if fmt == "json" else rep.to_csv())


def cmd_compare(file_a, file_b, output):
    """Category-wise gate-count ratios of two circuit files (a/b)."""
    _stdin_once((file_a, file_b))
    rep_a = report(_load_circuit(file_a))
    rep_b = report(_load_circuit(file_b))
    _write_text(output, compare_reports(rep_a, rep_b).to_json() + "\n")


def _integer(option: str, nonnegative: bool = False):
    """The argparse ``type`` of ``option``: ``int(text)``, at least 0 if
    ``nonnegative``.  ``int`` refuses a value in its own syntax only past its
    limit (4,300 digits, counting leading zeros but not ``_``): one line and exit 2,
    not argparse's usage with every digit echoed.  Any other bad value is that usage."""
    error = "{!r} is not an integer >= 0" if nonnegative else "invalid int value: {!r}"

    def read(text: str) -> int:
        try:
            value = int(text)
            if value >= 0 or not nonnegative:
                return value
        except ValueError:
            number = text.strip()
            groups = (number[1:] if number[:1] in ("+", "-") else number).split("_")
            if all(map(str.isdecimal, groups)):
                digits = sum(map(len, groups))
                _fail(EXIT_PARSE, f"{option}: a value of {digits} digits is too long")
        raise argparse.ArgumentTypeError(error.format(text))
    return read


class _Parser(argparse.ArgumentParser):
    """A parser with click's conventions: ``--help`` but no ``-h``, no abbreviated
    options, and the subcommand found by name first, so that its options and
    inputs may interleave."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        self.commands: dict[str, _Parser] = {}
        self.intermixed = False  # positionals between options: parse_intermixed_args, 2x the time

    def command(self, name: str, run=None, doc: str | None = None) -> _Parser:
        """Add the subcommand ``name``, which calls ``run`` with its arguments."""
        if not self.commands:
            self._subcommands = self.add_subparsers(metavar="COMMAND", required=True)
        doc = doc or run.__doc__
        sub = self.commands[name] = self._subcommands.add_parser(name, help=doc, description=doc)
        sub.set_defaults(run=run)
        return sub

    def parse_command(self, args: list[str]) -> argparse.Namespace:
        """The named command's arguments; help exits 0 and a usage error 2."""
        if args and args[0] in self.commands:
            return self.commands[args[0]].parse_command(args[1:])
        if self.intermixed and "--" not in args:  # it drops what follows "--"
            return self.parse_intermixed_args(args)
        return self.parse_args(args)

    def exit(self, status=0, message=None):
        _write_text(None, "")  # flush help or --version: a closed stdout exits 2 here too
        super().exit(status, message)


@functools.cache
def _parser() -> _Parser:
    """The whole command line, built on first use."""
    top = _Parser(prog="recliff",
                  description="Retarget Clifford circuits onto alternative native gatesets.")
    top.add_argument("--version", action="version", version=f"recliff, version {__version__}")
    c = top.command("compile", cmd_compile)
    c.add_argument("inputs", nargs="+")
    c.add_argument("--target", required=True, choices=sorted(TARGET_ENTANGLERS))
    c.add_argument("--natives", default="s_sx", choices=sorted(NATIVE_SETS))
    c.add_argument("--frame", dest="frame_mode", default="report", choices=FRAME_MODES)
    c.add_argument("--iswap-heuristic", action="store_true",
                   help="Allow crossing entangler class via virtual SWAP insertion.")
    c.add_argument("--expand-ecr", action="store_true",
                   help="Emit each ECR as its S/sqrt(X), CX, X circuit identity.")
    c.add_argument("--show-tableau", action="store_true",
                   help="Print source and compiled tableaux to stderr.")
    c.add_argument("--output", "-o", help="Output circuit path (single input; default stdout).")
    c.add_argument("--metadata", dest="metadata_path",
                   help="Write compilation metadata JSON to this path.")
    v = top.command("verify", cmd_verify)
    v.add_argument("--up-to-frame", action="store_true",
                   help="Accept per-generator sign differences; print the frame witness.")
    v.add_argument("--up-to-permutation", action="store_true",
                   help="Accept a wire relabelling, read off the certificate; "
                        "print the permutation witness.")
    for cmd in (c, v):
        cmd.add_argument("--max-qubits", default=DEFAULT_MAX_QUBITS,
                         type=_integer("--max-qubits", nonnegative=True),
                         help="Refuse inputs with more qubits (1 + the largest index) before "
                              "any tableau is built.  [default: %(default)s]")
    g = top.command("generate", doc="Construct benchmark circuits.")
    s = g.command("surface-code", cmd_generate_surface)
    s.add_argument("--distance", required=True, type=_integer("--distance"))
    r = g.command("random-clifford", cmd_generate_random)
    r.add_argument("--qubits", required=True, type=_integer("--qubits"))
    r.add_argument("--entanglers", dest="layers", required=True, type=_integer("--entanglers"),
                   help="Number of entangler layers (floor(n/2) pairs each).")
    r.add_argument("--seed", default=0, type=_integer("--seed"), help="[default: %(default)s]")
    r.add_argument("--entangler", default="cx", choices=sorted(TARGET_ENTANGLERS))
    st = top.command("stats", cmd_stats)
    st.add_argument("input_path")
    st.add_argument("--format", dest="fmt", default="json", choices=["json", "csv"])
    cmp = top.command("compare", cmd_compare)
    for cmd in (v, cmp):
        cmd.add_argument("file_a")
        cmd.add_argument("file_b")
    for cmd in (s, r, st, cmp):
        cmd.add_argument("--output", "-o")
    c.intermixed = True  # its variadic inputs may come between its options
    c.usage = c.format_usage().removeprefix("usage: ")  # else formatted on every call
    return top


def main(args=None, prog_name=None, standalone_mode=True, **extra) -> None:
    """The ``recliff`` command on ``args`` or ``sys.argv``.  It is also ``main.main``, the
    click command method that ``click.testing.CliRunner`` calls; other keywords are ignored.

    The cyclic garbage collector is paused while the command runs and the caller's
    setting restored on every exit: a request frees its one object per gate by
    reference counting, so the collector would only re-traverse what it builds.
    A command's exit is raised again from here, so that the frames its traceback
    holds, and the request's objects in them, are freed before the collector
    restarts; else its first pass would traverse them all."""
    collecting, code = gc.isenabled(), None
    gc.disable()
    try:
        kwargs = vars(_parser().parse_command(sys.argv[1:] if args is None else list(args)))
        kwargs.pop("run")(**kwargs)
    except SystemExit as exc:
        code = exc.code
    except KeyboardInterrupt:
        _fail(130, "interrupted")
    finally:
        if collecting:
            gc.enable()
    if code is not None:
        sys.exit(code)


main.main, main.name = main, "recliff"

if __name__ == "__main__":
    main()
