"""Gate-distribution reports and circuit-to-circuit comparisons.

X-type single-qubit gates are sqrt(X) rotations and their kin (SQRT_X,
SQRT_X_DAG, X, Y, and H_YZ before expansion); Z-type are phase rotations
(S, S_DAG, Z, and H_XY before expansion).  H and the cycle gates are neither,
so the x+z split only tiles the full single-qubit count for circuits
expressed over {S, sqrt(X)} and Paulis, which is where the split is used.
"""

from __future__ import annotations

import json

from .circuit import Circuit, depth, gate_counts
from .pauli import _Record

X_TYPE = frozenset({"SQRT_X", "SQRT_X_DAG", "X", "Y", "H_YZ"})
Z_TYPE = frozenset({"S", "S_DAG", "Z", "H_XY"})


class Report(_Record):
    """Exact gate tallies for one circuit."""

    counts: dict[str, int]
    x_type_count: int
    z_type_count: int
    single_qubit_count: int
    two_qubit_count: int
    depth: int
    total: int

    def to_dict(self) -> dict:
        return {
            "counts": dict(sorted(self.counts.items())),
            "x_type": self.x_type_count,
            "z_type": self.z_type_count,
            "two_qubit": self.two_qubit_count,
            "depth": self.depth,
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        """Gate histogram for plotting: ``name,count`` rows, header always."""
        import csv, io  # only this output needs them
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "count"])
        for name, count in sorted(self.counts.items()):
            writer.writerow([name, count])
        return buf.getvalue()


def report(c: Circuit) -> Report:
    """c's tallies: the counts are :func:`circuit.gate_counts`, and the
    single-qubit count is the length of each layer's single-qubit column."""
    counts = gate_counts(c)
    singles = sum([len(layer[0]) for layer in c._columns])
    total = sum(counts.values())
    return Report(
        counts=counts,
        x_type_count=sum(v for k, v in counts.items() if k in X_TYPE),
        z_type_count=sum(v for k, v in counts.items() if k in Z_TYPE),
        single_qubit_count=singles,
        two_qubit_count=total - singles,
        depth=depth(c),
        total=total,
    )


class Comparison(_Record):
    """Category-wise count ratios a/b; categories with a zero denominator are
    reported as undefined rather than dropped silently."""

    ratios: dict[str, float]
    undefined: tuple[str, ...]

    def to_dict(self) -> dict:
        out = {"ratios": {k: self.ratios[k] for k in sorted(self.ratios)}}
        if self.undefined:
            out["undefined"] = sorted(self.undefined)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def compare(a: Report, b: Report) -> Comparison:
    pairs = {
        "x_type": (a.x_type_count, b.x_type_count),
        "z_type": (a.z_type_count, b.z_type_count),
        "single_qubit_total": (a.single_qubit_count, b.single_qubit_count),
        "two_qubit": (a.two_qubit_count, b.two_qubit_count),
        "total": (a.total, b.total),
    }
    ratios: dict[str, float] = {}
    undefined: list[str] = []
    for key, (num, den) in pairs.items():
        if den == 0:
            undefined.append(key)
        else:
            ratios[key] = num / den
    return Comparison(ratios=ratios, undefined=tuple(undefined))
