"""Signed multi-qubit Pauli products in binary symplectic form.

A Pauli product over n qubits is stored as two n-bit integers (one X bit and
one Z bit per qubit) plus a sign in {+1, -1}.  Qubit j carries Y iff both bits
are set, I iff both are clear.  A stored product carries no factor of i: the
tableau machinery reads and writes signed generator images, and never
multiplies two products.
"""

from __future__ import annotations

from enum import IntEnum


class Pauli(IntEnum):
    """Single-qubit Pauli, coded so that value == 2*x_bit + z_bit."""

    I = 0
    Z = 1
    X = 2
    Y = 3

    @property
    def letter(self) -> str:
        return "IZXY"[self]

    @staticmethod
    def from_letter(letter: str) -> "Pauli":
        try:
            return {"I": Pauli.I, "X": Pauli.X, "Y": Pauli.Y, "Z": Pauli.Z}[letter]
        except KeyError:
            raise ValueError(f"not a Pauli letter: {letter!r}") from None


class _Record:
    """Base of the immutable value classes: ``dataclass(frozen=True)`` without
    importing :mod:`dataclasses` (and :mod:`inspect`).  Fields are the class's
    annotations, in order, with class values as defaults; ``__post_init__``
    checks them.  Equality (same class only), hash, repr and copies go by the
    fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = names = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in names  # not a slot's descriptor
                         if name in vars(cls) and name not in cls.__slots__}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or len(values) != len(names) or (
                kwargs and not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(names)}, each once")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """A subclass's checks of its fields."""

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through the constructor
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"


class PauliProduct(_Record):
    """Signed Pauli product on n qubits: sign * tensor of local Paulis.

    ``x`` and ``z`` are bit masks (bit j = qubit j).  ``sign`` is +1 or -1;
    factors of i never appear in a stored product.
    """

    n: int
    x: int = 0
    z: int = 0
    sign: int = 1

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("qubit count must be non-negative")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit mask exceeds qubit count")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_string(text: str, n: int | None = None) -> "PauliProduct":
        """Parse the textual syntax, e.g. ``-X0*Y2`` or ``+I``.

        The optional sign prefix is followed by ``*``-separated letter/index
        terms; ``I`` (no index) denotes the identity product.
        """
        s = text.strip()
        sign = 1
        if s.startswith(("+", "-")):
            if s[0] == "-":
                sign = -1
            s = s[1:]
        if not s:
            raise ValueError(f"empty Pauli string: {text!r}")
        x = z = 0
        top = -1
        if s != "I":
            for term in s.split("*"):
                term = term.strip()
                index = term[1:]  # ASCII decimal digits only, as parse takes targets
                if term[:1] not in ("X", "Y", "Z") or not (index.isascii() and index.isdigit()):
                    raise ValueError(f"bad Pauli term {term!r} in {text!r}")
                p = Pauli.from_letter(term[0])
                q = int(index)
                if (x >> q) & 1 or (z >> q) & 1:
                    raise ValueError(f"duplicate qubit {q} in {text!r}")
                x |= ((p >> 1) & 1) << q
                z |= (p & 1) << q
                top = max(top, q)
        size = n if n is not None else top + 1
        return PauliProduct(size, x, z, sign)

    # -- accessors ---------------------------------------------------------

    def local(self, qubit: int) -> Pauli:
        """The Pauli acting on one qubit."""
        if not 0 <= qubit < self.n:
            raise ValueError(f"qubit {qubit} out of range for n={self.n}")
        return Pauli(2 * ((self.x >> qubit) & 1) + ((self.z >> qubit) & 1))

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def __str__(self) -> str:
        head = "+" if self.sign > 0 else "-"
        if self.is_identity():
            return head + "I"
        return head + "*".join([f"{letter}{j}" for j, letter in terms(self)])


_LETTERS = {("1", "0"): "X", ("0", "1"): "Z", ("1", "1"): "Y"}


def support(p: PauliProduct) -> tuple[int, ...]:
    """Qubit indices where the product is non-identity, ascending."""
    bits = f"{p.x | p.z:b}"[::-1]  # bit j at index j: one linear pass
    return tuple([j for j, bit in enumerate(bits) if bit == "1"])


def terms(p: PauliProduct) -> list[tuple[int, str]]:
    """``(qubit, letter)`` for each non-identity term, ascending."""
    # Bit strings, least significant first, read each term in O(1).
    xs, zs = f"{p.x:0{p.n}b}"[::-1], f"{p.z:0{p.n}b}"[::-1]
    return [(j, _LETTERS[xs[j], zs[j]]) for j in support(p)]


def commutes(a: PauliProduct, b: PauliProduct) -> bool:
    """True iff the binary symplectic form of a and b is even."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return (((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1) == 0
