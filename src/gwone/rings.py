"""Exact arithmetic in truncated cohomology rings.

Values are elements of Q[h]/(h^{n+1}) or, when base generators are present,
of (Q[s_1,...,s_g]/(degree > cutoff))[h] with powers of h above n rewritten
through a configurable rule.  All coefficients are ``fractions.Fraction``;
nothing here ever rounds.

Each :class:`RingSpec` numbers its ring's basis once (its ``basis``): with
the base monomials of degree <= cutoff listed as m_0 = 1, m_1, ..., m_{M-1}
(``RingSpec.monomials``), the element h^k * m_i is the int k*M + i for
0 <= k <= n.  A class is one dict from these ints to nonzero coefficients;
absolute mode is the case M = 1, where h^k is simply k.

One kernel multiplies polynomials in t with class coefficients; a class is
the t^0 case, so ``CohClass`` and ``LaurentPoly`` products share it.  Each
operand becomes int numerators over its common denominator, each pair of
basis elements is looked up in the monomial product table (no term the
truncation drops is formed) and its int product is summed per power of t.
Powers of h above n are then rewritten through the h-rule, whose normal form
of each h^k * m_i is built once, and each sum becomes one ``Fraction``.

Everything is immutable after construction, so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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
    c * mono * h^j to the expansion of h^{n+1}, and j + deg(mono) must be
    n + 1.  An empty rule means h^{n+1} = 0 (plain truncation, the absolute case).
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
        for j, mono, c in self.h_rule:
            if not 0 <= j <= self.n:
                raise ValueError("h_rule exponent out of range")
            if len(mono) > len(self.base):
                raise ValueError("h_rule monomial has too many generators")
            if any(e < 0 for e in mono):
                raise ValueError("h_rule monomial has a negative exponent")
            if (degree := j + self.mono_degree(mono)) != self.n + 1:
                raise ValueError(
                    f"h_rule term ({j}, {mono}, {c}) is not degree-homogeneous: "
                    f"it has degree {degree}, not n + 1 = {self.n + 1}"
                )

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
        index into this list, and it numbers the basis.
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

    @cached_property
    def basis(self) -> Basis:
        """This instance's numbered basis, built on first use."""
        return Basis(self)


class Basis:
    """The numbered basis of a spec's ring, with its product tables.

    Element b = k*M + i stands for h^k * m_i (0 <= k <= n).  ``h_offset[b]``
    is k*M, ``mono_of[b]`` is i and ``degree[b]`` is k + deg(m_i);
    ``products[i][j]`` is the index of m_i * m_j, or -1 above the cutoff.
    An int b >= ``top`` = (n+1)*M numbers h^k * m_i with k > n the same
    way; ``tail(b)`` is its normal form, rewritten through the h-rule.
    """

    __slots__ = (
        "n", "size", "top", "monos", "index", "generators",
        "products", "h_offset", "mono_of", "degree", "_rule", "_tails",
    )

    def __init__(self, spec: RingSpec):
        monos = spec.monomials()
        size = len(monos)
        index = {mono: i for i, mono in enumerate(monos)}
        powers = range(spec.n + 1)
        self.n = spec.n
        self.size = size
        self.top = (spec.n + 1) * size
        self.monos = monos
        self.index = index
        self.generators = len(spec.base)
        self.products = [[index.get(mono_mul(a, b), -1) for b in monos] for a in monos]
        self.h_offset = [k * size for k in powers for _ in monos]
        self.mono_of = [i for _ in powers for i in range(size)]
        self.degree = [k + spec.mono_degree(mono) for k in powers for mono in monos]
        # Rule terms whose monomial is above the cutoff vanish.  Integral
        # coefficients are kept as ints, so the product kernel's int sums
        # fold through the h-rule without Fraction arithmetic.
        rule = [(j, index.get(_strip(mono)), Fraction(c)) for j, mono, c in spec.h_rule]
        self._rule = [
            (j, r, c.numerator if c.denominator == 1 else c) for j, r, c in rule if r is not None
        ]
        self._tails: list[dict[int, Scalar]] = []

    def mono_index(self, mono: Mono) -> int:
        """The index of a caller's monomial, or -1 when it is above the cutoff.

        Trailing zero exponents are ignored.  Raises ValueError for anything
        that is not a monomial of this ring: a negative exponent, or more
        exponents than the ring has generators.
        """
        i = self.index.get(mono)
        if i is not None:
            return i
        stripped = _strip(mono)
        i = self.index.get(stripped)
        if i is not None:
            return i
        if any(e < 0 for e in stripped):
            raise ValueError(f"monomial {mono!r} has a negative exponent")
        if len(stripped) > self.generators:
            raise ValueError(
                f"monomial {mono!r} has more exponents than the {self.generators} generators"
            )
        return -1

    def tail(self, key: int) -> dict[int, Scalar]:
        """The normal form of h^k * m_i for k > n (``key`` >= ``top``).

        Tails are built in key order on first use, so each rewrite through
        the h-rule reads only tails already built.
        """
        tails, top, size = self._tails, self.top, self.size
        while len(tails) <= key - top:
            k, i = divmod(top + len(tails), size)
            row = self.products[i]
            acc: dict[int, Scalar] = {}
            spill: dict[int, Scalar] = {}
            for j, r, c in self._rule:
                m = row[r]
                if m < 0:
                    continue
                target = (k - self.n - 1 + j) * size + m
                into = acc if target < top else spill
                into[target] = into.get(target, 0) + c
            tails.append(self.fold(acc, spill))
        return tails[key - top]

    def fold(self, acc: dict[int, Scalar], spill: Mapping[int, Scalar]) -> dict[int, Scalar]:
        """The nonzero terms of ``acc`` plus ``spill`` (keys >= top) rewritten through ``tail``.

        ``acc`` is consumed.  Tails hold an h-rule coefficient as an int when
        it is integral, so int sums stay ints and Fraction sums Fractions.
        """
        for key, c in spill.items():
            for t, v in self.tail(key).items():
                old = acc.get(t)
                acc[t] = c * v if old is None else old + c * v
        return {key: c for key, c in acc.items() if c}


def _geometric_series(x, failure: str):
    """1 + x + x^2 + ... for a nilpotent ``CohClass`` or ``LaurentPoly`` x.

    Products and the h-rule preserve degree (h-exponent plus base degree),
    since ``RingSpec`` admits only rule terms of degree n + 1.  Classes
    without scalar part therefore span degrees 1..n + base_cutoff, and any
    x whose coefficients have no scalar part has x^k = 0 by k = n + base_cutoff + 1.
    If x^k does not vanish by then, raises :class:`NotInvertibleError` with
    the message ``failure``.
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


def _denominator(terms: Mapping[int, CohClass]) -> int:
    """The lcm of the denominators of every coefficient in ``terms``."""
    # A loop, not lcm(*...): unpacking argument tuples of every length raised peak RSS.
    den = 1
    for cls in terms.values():
        for c in cls._coeffs.values():
            den = lcm(den, c.denominator)
    return den


def _convolve(
    spec: RingSpec, left: Mapping[int, CohClass], right: Mapping[int, CohClass]
) -> dict[int, CohClass]:
    """The product of two polynomials in t with classes of ``spec`` as coefficients.

    Maps each t-exponent of the product to its nonzero class; one class is
    the exponent-0 case.  Each operand is taken as int numerators over its
    common denominator, so every basis-pair product is one int product
    summed into its output exponent.  Each output exponent is then rewritten
    through the h-rule once (``Basis.fold``) and each surviving coefficient
    becomes one ``Fraction`` over the product of the two denominators.
    """
    basis = spec.basis
    top, products, h_offset, mono_of, tail = (
        basis.top, basis.products, basis.h_offset, basis.mono_of, basis.tail
    )
    den_a, den_b = _denominator(left), _denominator(right)
    rows = [
        (ea, [(h_offset[a], products[mono_of[a]], c.numerator * (den_a // c.denominator))
              for a, c in cls._coeffs.items()])
        for ea, cls in left.items()
    ]
    cols = [
        (eb, [(h_offset[b], mono_of[b], c.numerator * (den_b // c.denominator))
              for b, c in cls._coeffs.items()])
        for eb, cls in right.items()
    ]
    sums: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    for ea, row_terms in rows:
        for eb, col_terms in cols:
            slot = sums.get(ea + eb)
            if slot is None:
                slot = sums[ea + eb] = ({}, {})
            acc, spill = slot
            for ka, row, na in row_terms:
                for kb, ib, nb in col_terms:
                    m = row[ib]
                    if m < 0:
                        continue
                    key = ka + kb + m
                    if key < top:
                        acc[key] = acc.get(key, 0) + na * nb
                    elif tail(key):
                        spill[key] = spill.get(key, 0) + na * nb
    den = den_a * den_b
    out: dict[int, CohClass] = {}
    for e, (acc, spill) in sums.items():
        coeffs = basis.fold(acc, spill)
        if coeffs:
            out[e] = CohClass._new(spec, {key: Fraction(v, den) for key, v in coeffs.items()})
    return out


class CohClass:
    """An element of the truncated ring described by a :class:`RingSpec`."""

    __slots__ = ("spec", "_coeffs")

    def __init__(self, spec: RingSpec, parts: Iterable[Mapping[Mono, Scalar]]):
        """Coerce caller input, one dict per power of h (any number of them)."""
        basis = spec.basis
        size, top, mono_index = basis.size, basis.top, basis.mono_index
        acc: dict[int, Fraction] = {}
        spill: dict[int, Fraction] = {}
        for k, poly in enumerate(parts):
            for mono, c in poly.items():
                i = mono_index(mono)
                if i < 0:
                    continue
                key = k * size + i
                into = acc if key < top else spill
                old = into.get(key)
                into[key] = Fraction(c) if old is None else old + Fraction(c)
        self.spec = spec
        self._coeffs = basis.fold(acc, spill)

    @classmethod
    def _new(cls, spec: RingSpec, coeffs: dict[int, Fraction]) -> CohClass:
        """A class from kernel-built coefficients: basis keys below top, nonzero Fractions."""
        out = object.__new__(cls)
        out.spec = spec
        out._coeffs = coeffs
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
        return not self._coeffs

    @property
    def scalar_part(self) -> Fraction:
        return self._coeffs.get(0, Fraction(0))

    def coefficient(self, h_exp: int, mono: Mono = ()) -> Fraction:
        basis = self.spec.basis
        i = basis.mono_index(tuple(mono))
        if i < 0 or not 0 <= h_exp <= self.spec.n:
            return Fraction(0)
        return self._coeffs.get(h_exp * basis.size + i, Fraction(0))

    def terms(self) -> Iterator[tuple[int, Mono, Fraction]]:
        """(h-exponent, base monomial, coefficient) in basis order."""
        basis = self.spec.basis
        for key in sorted(self._coeffs):
            k, i = divmod(key, basis.size)
            yield k, basis.monos[i], self._coeffs[key]

    def degrees(self) -> set[int]:
        """Total degrees present, grading h by 1 and generator i by deg(i)."""
        degree = self.spec.basis.degree
        return {degree[key] for key in self._coeffs}

    def is_homogeneous(self, degree: int) -> bool:
        degs = self.degrees()
        return not degs or degs == {degree}

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: CohClass) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError("operands live in different rings")

    def __add__(self, other: CohClass) -> CohClass:
        self._check(other)
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            old = out.get(key)
            if old is None:
                out[key] = c
                continue
            total = old + c
            if total:
                out[key] = total
            else:
                del out[key]
        return CohClass._new(self.spec, out)

    def __sub__(self, other: CohClass) -> CohClass:
        return self + (-other)

    def __neg__(self) -> CohClass:
        return CohClass._new(self.spec, {key: -c for key, c in self._coeffs.items()})

    def __mul__(self, other: CohClass | Scalar) -> CohClass:
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return CohClass.zero(self.spec)
            return CohClass._new(self.spec, {key: c * other for key, c in self._coeffs.items()})
        self._check(other)
        product = _convolve(self.spec, {0: self}, {0: other})
        return product[0] if product else CohClass._new(self.spec, {})

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
        same_spec = self.spec is other.spec or self.spec == other.spec
        return same_spec and self._coeffs == other._coeffs

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
        low = self.spec.n * self.spec.basis.size
        if not self.spec.is_relative:
            return self._coeffs.get(low, Fraction(0))
        base_part = {key - low: c for key, c in self._coeffs.items() if key >= low}
        return CohClass._new(self.spec, base_part)

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
