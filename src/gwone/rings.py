"""Exact arithmetic in truncated cohomology rings.

Values are elements of Q[h]/(h^{n+1}) or, when base generators are present,
of (Q[s_1,...,s_g]/(degree > cutoff))[h] with powers of h above n rewritten
through a configurable rule.  All coefficients are ``fractions.Fraction``;
nothing here ever rounds.

The representation is dense in the h-exponent and sparse in base monomials:
a class holds a tuple of n+1 dicts, one per power of h, each mapping a base
exponent tuple (trailing zeros stripped) to its rational coefficient.  The
empty tuple () is the unit monomial, so absolute-mode classes only ever use
that key.  Zero coefficients and monomials above the base cutoff are never
stored.  Every class reaches this normal form exactly once, in ``_normalise``.

Everything is immutable after construction, so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Mono = tuple[int, ...]
BasePoly = dict[Mono, Fraction]

Scalar = Fraction | int


class SpecMismatchError(ValueError):
    """Raised when combining values that live in different ring specs."""


class NotInvertibleError(ArithmeticError):
    """Raised when an element has no inverse in the truncated ring."""


def _strip(mono: Iterable[int]) -> Mono:
    out = tuple(mono)
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def mono_mul(a: Mono, b: Mono) -> Mono:
    """The product of two stripped monomials, stripped."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return _strip(tuple(x + y for x, y in zip(a, b)) + a[len(b):])


def generator_mono(index: int) -> Mono:
    """The stripped monomial of base generator ``index`` (0-based)."""
    return (0,) * index + (1,)


@dataclass(frozen=True)
class RingSpec:
    """Shape of a truncated ring: fiber dimension, base generators, h-rule.

    ``h_rule`` rewrites h^{n+1}: each entry (j, mono, c) contributes
    c * mono * h^j to the expansion of h^{n+1}.  An empty rule means
    h^{n+1} = 0 (plain truncation, the absolute case).
    """

    n: int
    base: tuple[tuple[str, int], ...] = ()
    base_cutoff: int = 0
    h_rule: tuple[tuple[int, Mono, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("fiber dimension must be >= 0")
        if self.base_cutoff < 0:
            raise ValueError("base cutoff must be >= 0")
        for name, degree in self.base:
            if degree < 1:
                raise ValueError(f"generator {name!r} must have degree >= 1")
        for j, mono, _ in self.h_rule:
            if not 0 <= j <= self.n:
                raise ValueError("h_rule exponent out of range")
            if len(mono) > len(self.base):
                raise ValueError("h_rule monomial has too many generators")

    @classmethod
    def absolute(cls, n: int) -> RingSpec:
        """The ring Q[h]/(h^{n+1})."""
        return cls(n=n)

    @classmethod
    def relative(
        cls,
        n: int,
        generators: Iterable[tuple[str, int]],
        base_cutoff: int,
        h_rule: Iterable[tuple[int, Mono, Fraction]] = (),
    ) -> RingSpec:
        """A base-extended ring with the supplied rewriting of h^{n+1}."""
        rule = tuple((j, _strip(mono), Fraction(c)) for j, mono, c in h_rule)
        return cls(n=n, base=tuple(generators), base_cutoff=base_cutoff, h_rule=rule)

    @property
    def is_relative(self) -> bool:
        return bool(self.base)

    def mono_degree(self, mono: Mono) -> int:
        return sum(e * self.base[i][1] for i, e in enumerate(mono))

    def generator_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.base)

    def monomials(self) -> list[Mono]:
        """Every base monomial of degree <= base_cutoff, () first.

        The order is fixed: seeded random draws (acceptance criterion 12)
        index into this list.
        """
        monos: list[Mono] = [()]
        for index, (_, degree) in enumerate(self.base):
            extended = []
            for mono in monos:
                budget = self.base_cutoff - self.mono_degree(mono)
                for e in range(1, budget // degree + 1):
                    extended.append(mono + (0,) * (index - len(mono)) + (e,))
            monos.extend(extended)
        return monos


def _normalise(spec: RingSpec, raw: list[BasePoly]) -> tuple[BasePoly, ...]:
    """The normal form of a class: its n+1 h-slots.

    ``raw`` holds stripped monomials with ``Fraction`` coefficients in any
    number of h-slots; it is consumed.  Powers of h above n are rewritten
    through the h-rule (pruning products above the cutoff as they appear),
    then zero coefficients and monomials above the cutoff are dropped.
    """
    n, cutoff, degree = spec.n, spec.base_cutoff, spec.mono_degree
    for e in range(len(raw) - 1, n, -1):
        poly = raw[e]
        if not poly:
            continue
        for j, rmono, rc in spec.h_rule:
            acc = raw[e - (n + 1) + j]
            for mono, c in poly.items():
                prod = mono_mul(mono, rmono)
                if prod and degree(prod) > cutoff:
                    continue
                old = acc.get(prod)
                acc[prod] = c * rc if old is None else old + c * rc
    raw.extend({} for _ in range(n + 1 - len(raw)))
    return tuple([  # from a list, so the tuple is allocated at its final size
        {mono: c for mono, c in poly.items() if c and not (mono and degree(mono) > cutoff)}
        for poly in raw[: n + 1]
    ])


def _geometric_series(x, failure: str):
    """1 + x + x^2 + ... for a nilpotent ``CohClass`` or ``LaurentPoly`` x.

    A nilpotent x has x^k = 0 by k = n + base_cutoff + 1; if it does not,
    raises :class:`NotInvertibleError` with the message ``failure``.
    """
    acc, power = type(x).one(x.spec), x
    for _ in range(x.spec.n + x.spec.base_cutoff + 1):
        if power.is_zero():
            break
        acc = acc + power
        power = power * x
    if not power.is_zero():
        raise NotInvertibleError(failure)
    return acc


class CohClass:
    """An element of the truncated ring described by a :class:`RingSpec`."""

    __slots__ = ("spec", "_parts")

    def __init__(self, spec: RingSpec, parts: Iterable[Mapping[Mono, Scalar]]):
        """Coerce caller input, one dict per power of h (any number of them)."""
        raw: list[BasePoly] = []
        for poly in parts:
            entry: BasePoly = {}
            for mono, c in poly.items():
                mono = _strip(mono)
                old = entry.get(mono)
                entry[mono] = Fraction(c) if old is None else old + Fraction(c)
            raw.append(entry)
        self.spec = spec
        self._parts = _normalise(spec, raw)

    @classmethod
    def _new(cls, spec: RingSpec, raw: list[BasePoly]) -> CohClass:
        """A class from kernel-built slots: stripped monomials, Fraction coefficients."""
        out = object.__new__(cls)
        out.spec = spec
        out._parts = _normalise(spec, raw)
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> CohClass:
        return cls(spec, ())

    @classmethod
    def one(cls, spec: RingSpec) -> CohClass:
        return cls.scalar(spec, 1)

    @classmethod
    def scalar(cls, spec: RingSpec, value: Scalar) -> CohClass:
        return cls(spec, [{(): value}])

    @classmethod
    def h_power(cls, spec: RingSpec, k: int) -> CohClass:
        """h^k, rewritten through the h-rule when k exceeds n."""
        return cls.from_terms(spec, {(k, ()): 1})

    @classmethod
    def generator(cls, spec: RingSpec, index: int) -> CohClass:
        return cls(spec, [{generator_mono(index): 1}])

    @classmethod
    def from_terms(cls, spec: RingSpec, terms: Mapping[tuple[int, Mono], Scalar]) -> CohClass:
        """Build a class from (h-exponent, base-monomial) -> coefficient."""
        top = max((k for (k, _) in terms), default=0)
        slots: list[dict[Mono, Scalar]] = [{} for _ in range(top + 1)]
        for (k, mono), c in terms.items():
            if k < 0:
                raise ValueError("negative h-exponent")
            slots[k][mono] = c
        return cls(spec, slots)

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(not poly for poly in self._parts)

    @property
    def scalar_part(self) -> Fraction:
        return self._parts[0].get((), Fraction(0))

    def coefficient(self, h_exp: int, mono: Mono = ()) -> Fraction:
        if not 0 <= h_exp <= self.spec.n:
            return Fraction(0)
        return self._parts[h_exp].get(_strip(mono), Fraction(0))

    def terms(self) -> Iterator[tuple[int, Mono, Fraction]]:
        for k, poly in enumerate(self._parts):
            for mono, c in poly.items():
                yield k, mono, c

    def degrees(self) -> set[int]:
        """Total degrees present, grading h by 1 and generator i by deg(i)."""
        return {k + self.spec.mono_degree(mono) for k, mono, _ in self.terms()}

    def is_homogeneous(self, degree: int) -> bool:
        degs = self.degrees()
        return not degs or degs == {degree}

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: CohClass) -> None:
        if self.spec != other.spec:
            raise SpecMismatchError("operands live in different rings")

    def __add__(self, other: CohClass) -> CohClass:
        self._check(other)
        parts = []
        for p, q in zip(self._parts, other._parts):
            merged = dict(p)
            for mono, c in q.items():
                old = merged.get(mono)
                merged[mono] = c if old is None else old + c
            parts.append(merged)
        return CohClass._new(self.spec, parts)

    def __sub__(self, other: CohClass) -> CohClass:
        return self + (-other)

    def __neg__(self) -> CohClass:
        return CohClass._new(self.spec, [{m: -c for m, c in p.items()} for p in self._parts])

    def __mul__(self, other: CohClass | Scalar) -> CohClass:
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return CohClass.zero(self.spec)
            return CohClass._new(
                self.spec,
                [{m: c * other for m, c in p.items()} for p in self._parts],
            )
        self._check(other)
        spec = self.spec
        raw: list[BasePoly] = [dict() for _ in range(2 * spec.n + 1)]
        cutoff, degree = spec.base_cutoff, spec.mono_degree
        for i, p in enumerate(self._parts):
            if not p:
                continue
            for j, q in enumerate(other._parts):
                if not q:
                    continue
                acc = raw[i + j]
                for ma, ca in p.items():
                    for mb, cb in q.items():
                        mono = mono_mul(ma, mb)
                        if mono and degree(mono) > cutoff:
                            continue
                        old = acc.get(mono)
                        acc[mono] = ca * cb if old is None else old + ca * cb
        return CohClass._new(spec, raw)

    def __rmul__(self, other: Scalar) -> CohClass:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> CohClass:
        if exponent < 0:
            raise ValueError("negative powers are not defined; use inverse()")
        out = CohClass.one(self.spec)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.spec == other.spec and self._parts == other._parts

    __hash__ = None  # type: ignore[assignment]

    def inverse(self) -> CohClass:
        """Invert a unit: nonzero scalar part plus a nilpotent remainder."""
        c0 = self.scalar_part
        if not c0:
            raise NotInvertibleError("degree-0 part is zero")
        scale = Fraction(1) / c0
        x = CohClass.one(self.spec) - self * scale
        return _geometric_series(x, "remainder is not nilpotent") * scale

    def integrate(self) -> Fraction | CohClass:
        """Fiber integration: the coefficient of h^n.

        Returns a rational in absolute mode and the base class multiplying
        h^n in relative mode.
        """
        if not self.spec.is_relative:
            return self._parts[self.spec.n].get((), Fraction(0))
        return CohClass(self.spec, [self._parts[self.spec.n]])

    # -- rendering --------------------------------------------------------

    def _term_str(self, h_exp: int, mono: Mono, c: Fraction) -> str:
        pieces = []
        if h_exp == 1:
            pieces.append("h")
        elif h_exp > 1:
            pieces.append(f"h^{h_exp}")
        names = self.spec.generator_names()
        for i, e in enumerate(mono):
            if e == 1:
                pieces.append(names[i])
            elif e > 1:
                pieces.append(f"{names[i]}^{e}")
        body = "*".join(pieces)
        if not body:
            return str(c)
        if c == 1:
            return body
        if c == -1:
            return "-" + body
        return f"{c}*{body}"

    def __str__(self) -> str:
        items = sorted(self.terms(), key=lambda t: (t[0], t[1]))
        if not items:
            return "0"
        out = self._term_str(*items[0])
        for h_exp, mono, c in items[1:]:
            piece = self._term_str(h_exp, mono, c)
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:
        return f"CohClass({self})"
