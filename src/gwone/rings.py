"""Exact arithmetic in truncated cohomology rings.

Values are elements of Q[h]/(h^{n+1}) or, when base generators are present,
of (Q[s_1,...,s_g]/(degree > cutoff))[h] with powers of h above n rewritten
through a configurable rule.  Nothing here ever rounds.

Each :class:`RingSpec` numbers its ring's basis once (its ``basis``): with
the base monomials of degree <= cutoff listed as m_0 = 1, m_1, ..., m_{M-1}
(``RingSpec.monomials``), the element h^k * m_i is the int k*M + i for
0 <= k <= n.  A polynomial in t with class coefficients is one dict from
combined keys c = e*stride + key (the term t^e * h^k * m_i, with key
= k*M + i) to nonzero int numerators, over one positive denominator, in
lowest terms: the gcd of the denominator and every numerator is 1, and zero
is ({}, 1).  ``Basis.stride`` = (2n+1)*M exceeds every basis key and every
product of two, so ``c // stride`` and ``c % stride`` recover (e, key) for
negative e too.  A class is the t^0 case, the same dict with c = key.
Equal values therefore store equal data.  ``fractions.Fraction`` values are
built only where a coefficient leaves the class (``coefficient``,
``terms``, ``scalar_part``, ``integrate``, ``__str__``).

Sums, scalar products and products act on these dicts (``_add``, ``_sum``,
``_times``, ``_convolve``).  ``CohClass`` and ``LaurentPoly`` share one value
core, ``_Value``: its storage and every member that reads only the storage
(arithmetic, equality, homogeneity, the inverse's geometric series) are
defined once, and a sum or product with a polynomial operand is a
polynomial.  A product takes each operand prepared as one list of terms
(``_rows`` for the left factor, ``_cols`` for the right, ordered by rank
across all powers of t); every value prepares them once and keeps them.
Each pair of terms is looked up in the monomial product table and
its int product is summed into one accumulator keyed by combined key.  The
loop over the right operand's terms ends at the first one whose product
must vanish: past h^n with an empty h-rule, where only zeros are then
dropped, and past the base cutoff otherwise.  With an h-rule, powers of h
above n are rewritten through it, once per product; the normal form of
each h^k * m_i is built once, as ints over one denominator per spec (1 when
every rule coefficient is an integer).  ``_sum`` adds any number of terms,
such as one comb degree's, in one pass over a running lcm denominator.
Each result is reduced once, by one gcd over its denominator and numerators.

Everything is immutable after construction, so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping

Mono = tuple[int, ...]
BasePoly = dict[Mono, Fraction]
# Int numerators by combined key e*stride + key (by basis key alone for a class).
Numerators = dict[int, int]
# A polynomial prepared as the left or the right operand of a product (``_rows``, ``_cols``).
Rows = list[tuple[int, int, list[int], int]]
Cols = list[tuple[int, int, int, int]]

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
    @lru_cache(maxsize=None)
    def absolute(cls, n: int) -> RingSpec:
        """The ring Q[h]/(h^{n+1}); one instance per n, so its ``basis`` is built once."""
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


def _lowest(num: Numerators, den: int) -> tuple[Numerators, int]:
    """``num`` over ``den`` > 0 divided by the gcd of ``den`` and every numerator."""
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {c: v // g for c, v in num.items()}, den // g


def _add(a: Numerators, den_a: int, b: Numerators, den_b: int) -> tuple[Numerators, int]:
    """a/den_a + b/den_b in lowest terms, with no zero numerator."""
    g = gcd(den_a, den_b)
    sa, sb = den_b // g, den_a // g
    out = {c: v * sa for c, v in a.items()}
    for c, v in b.items():
        v = v * sb + out.get(c, 0)
        if v:
            out[c] = v
        else:
            del out[c]
    return _lowest(out, den_a * sa)


def _sum(terms: Iterable[tuple[Numerators, int]]) -> tuple[Numerators, int]:
    """The sum of num/den over ``terms`` in lowest terms, in one pass.

    The running sum is kept over the lcm of the denominators seen so far, is
    rescaled in place only when a new denominator does not divide that lcm,
    and is reduced once at the end.  Only the dict built here is mutated.
    """
    acc: Numerators = {}
    den = 1
    for num, d in terms:
        if den % d:
            scale = d // gcd(den, d)
            den *= scale
            for c in acc:
                acc[c] *= scale
        f = den // d
        for c, v in num.items():
            acc[c] = acc.get(c, 0) + v * f
    return _lowest({c: v for c, v in acc.items() if v}, den)


def _times(num: Numerators, den: int, r: Fraction) -> tuple[Numerators, int]:
    """num/den times the rational r, in lowest terms."""
    if not r:
        return {}, 1
    if r.numerator != 1:  # numerators are never mutated, so 1/q can share them
        num = {c: v * r.numerator for c, v in num.items()}
    return _lowest(num, den * r.denominator)


class Basis:
    """The numbered basis of a spec's ring, with its product tables.

    Element b = k*M + i stands for h^k * m_i (0 <= k <= n).  ``mono_of[b]``
    is i and ``degree[b]`` is k + deg(m_i);
    ``products[i][j]`` is the index of m_i * m_j, or -1 above the cutoff.
    An int b >= ``top`` = (n+1)*M numbers h^k * m_i with k > n the same
    way; ``tail(b)`` is its normal form, rewritten through the h-rule, as
    int numerators over ``tail_den``.  The term t^e * b of a polynomial is
    the combined key e*``stride`` + b; ``stride`` = (2n+1)*M exceeds the
    key of any product of two basis elements.

    The product of a and b is zero when ``rank[b]`` >= ``room[a]``: ranked
    by power of h, past h^n with an empty h-rule; ranked by base degree,
    past the cutoff otherwise, since the rule rewrites powers of h above n.

    Each rule term raises the base degree by at least 1, so a tail takes at
    most base_cutoff rewrites, each by one rule coefficient: with R the lcm
    of the rule's denominators, every tail is integral over
    ``tail_den`` = R^base_cutoff, which is 1 for an integral rule.
    """

    __slots__ = (
        "n", "size", "top", "stride", "monos", "index", "generators", "products",
        "mono_of", "degree", "rank", "room", "tail_den", "_rule", "_rule_den", "_tails",
    )

    def __init__(self, spec: RingSpec):
        monos = spec.monomials()
        size = len(monos)
        index = {mono: i for i, mono in enumerate(monos)}
        powers = range(spec.n + 1)
        self.n = spec.n
        self.size = size
        self.top = (spec.n + 1) * size
        self.stride = (2 * spec.n + 1) * size
        self.monos = monos
        self.index = index
        self.generators = len(spec.base)
        degrees = [spec.mono_degree(mono) for mono in monos]
        cutoff = spec.base_cutoff
        self.products = [
            [index[mono_mul(a, b)] if da + db <= cutoff else -1 for b, db in zip(monos, degrees)]
            for a, da in zip(monos, degrees)
        ]
        self.mono_of = [i for _ in powers for i in range(size)]
        self.degree = [k + g for k in powers for g in degrees]
        # Rule terms whose monomial is above the cutoff vanish.  The others
        # are kept as int numerators over the lcm of their denominators.
        rule = [(j, index.get(_strip(mono)), Fraction(c)) for j, mono, c in spec.h_rule]
        rule = [(j, r, c) for j, r, c in rule if r is not None]
        self._rule_den = lcm(*(c.denominator for _, _, c in rule))
        self._rule = [(j, r, c.numerator * (self._rule_den // c.denominator)) for j, r, c in rule]
        self.tail_den = self._rule_den**cutoff
        if self._rule:
            self.rank = [g for _ in powers for g in degrees]
            self.room = [cutoff + 1 - g for g in self.rank]
        else:
            self.rank = [k * size for k in powers for _ in monos]
            self.room = [self.top - k for k in self.rank]
        self._tails: list[Numerators] = []

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

    def normal(self, key: int) -> Numerators:
        """The normal form of h^k * m_i for any k >= 0, over ``tail_den``."""
        return {key: self.tail_den} if key < self.top else self.tail(key)

    def tail(self, key: int) -> Numerators:
        """The normal form of h^k * m_i for k > n (``key`` >= ``top``), over ``tail_den``.

        Tails are built in key order on first use, so each rewrite through
        the h-rule reads only tails already built.
        """
        tails, top, size = self._tails, self.top, self.size
        while len(tails) <= key - top:
            k, i = divmod(top + len(tails), size)
            row = self.products[i]
            acc: Numerators = {}
            for j, r, c in self._rule:
                m = row[r]
                if m < 0:
                    continue
                for t, v in self.normal((k - self.n - 1 + j) * size + m).items():
                    acc[t] = acc.get(t, 0) + c * v
            # The rule's ints are R times its coefficients, and the tail is integral over tail_den.
            tails.append({t: v // self._rule_den for t, v in acc.items() if v})
        return tails[key - top]

    def fold(self, num: Numerators) -> Numerators:
        """The nonzero numerators over ``tail_den`` of ``num``, by combined key, with each
        term t^e * h^k * m_i for k > n rewritten through ``tail``."""
        stride, top, tail_den = self.stride, self.top, self.tail_den
        out: Numerators = {}
        for c, v in num.items():
            key = c % stride
            if key < top:
                out[c] = out.get(c, 0) + v * tail_den
                continue
            base = c - key
            for t, w in self.tail(key).items():
                out[base + t] = out.get(base + t, 0) + v * w
        return {c: v for c, v in out.items() if v}


def _rows(basis: Basis, num: Numerators) -> Rows:
    """``num`` as the left operand of :func:`_convolve`: per term, its combined key
    without the monomial, its ``Basis.room``, its product-table row and its numerator."""
    room, products, mono_of, stride = basis.room, basis.products, basis.mono_of, basis.stride
    rows = []
    for c, v in num.items():
        key = c % stride
        i = mono_of[key]
        rows.append((c - i, room[key], products[i], v))
    return rows


def _cols(basis: Basis, num: Numerators) -> Cols:
    """``num`` as the right operand of :func:`_convolve`: per term, its combined key
    without the monomial, its ``Basis.rank``, its monomial index and its numerator,
    ordered by rank across all powers of t."""
    rank, mono_of, stride = basis.rank, basis.mono_of, basis.stride
    cols = []
    for c, v in num.items():
        key = c % stride
        i = mono_of[key]
        cols.append((c - i, rank[key], i, v))
    cols.sort(key=lambda col: col[1])
    return cols


def _convolve(
    basis: Basis, rows: Rows, den_l: int, cols: Cols, den_r: int
) -> tuple[Numerators, int]:
    """(left/den_l) * (right/den_r) in lowest terms, for polynomials in t given as
    prepared operands (``_rows`` of left, ``_cols`` of right).

    Every pair of terms is one int product summed into one accumulator by
    combined key.  The right operand's terms are visited by rank and the
    loop ends at the first pair that ``Basis.room`` rules out.  With an
    empty h-rule nothing lands above h^n and only zeros are dropped;
    otherwise those terms are rewritten through the h-rule once
    (``Basis.fold``, over ``tail_den``).  The result is reduced with one gcd.
    """
    acc: Numerators = {}
    for ca, room, row, na in rows:
        for cb, rank, ib, nb in cols:
            if rank >= room:
                break
            m = row[ib]
            if m >= 0:
                c = ca + cb + m
                acc[c] = acc.get(c, 0) + na * nb
    if basis._rule:
        return _lowest(basis.fold(acc), den_l * den_r * basis.tail_den)
    if 0 in acc.values():  # a cancellation; rare, so the copy is too
        acc = {c: v for c, v in acc.items() if v}
    return _lowest(acc, den_l * den_r)


def _join(pieces: list[str]) -> str:
    """Rendered terms joined by " + ", or by " - " before a negative one; "0" for none."""
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


class _Value:
    """The exact-value core of :class:`CohClass` and :class:`~gwone.laurent.LaurentPoly`.

    A value is the flat dict ``_num`` over ``_den`` of the module docstring,
    in lowest terms; a class is the t^0 case.  Everything here reads only
    that storage, so each method serves both types; each type keeps its own
    construction, read API and the seed of its inverse.  A sum or product
    with a polynomial operand is a polynomial.
    """

    # _left and _right are this value prepared as a product operand (``_rows``,
    # ``_cols``), built on first use; not part of the value.
    __slots__ = ("spec", "_num", "_den", "_left", "_right")

    @classmethod
    def _new(cls, spec: RingSpec, num: Numerators, den: int) -> _Value:
        """A value from nonzero numerators by combined key, in lowest terms over den."""
        out = object.__new__(cls)
        out.spec = spec
        out._num = num
        out._den = den
        out._left = out._right = None
        return out

    @classmethod
    def zero(cls, spec: RingSpec) -> _Value:
        return cls._new(spec, {}, 1)

    @classmethod
    def one(cls, spec: RingSpec) -> _Value:
        return cls._new(spec, {0: 1}, 1)

    def is_zero(self) -> bool:
        return not self._num

    def is_homogeneous(self, total_degree: int) -> bool:
        """True when the t^j coefficient is concentrated in degree total_degree - j,
        grading h by 1 and generator i by deg(i); a class is the case j = 0."""
        degree, stride = self.spec.basis.degree, self.spec.basis.stride
        return all(degree[c % stride] == total_degree - c // stride for c in self._num)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: _Value) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError("operands live in different rings")

    def __add__(self, other: _Value) -> _Value:
        self._check(other)
        kind = type(self) if isinstance(other, CohClass) else type(other)
        return kind._new(self.spec, *_add(self._num, self._den, other._num, other._den))

    def __sub__(self, other: _Value) -> _Value:
        return self + (-other)

    def __neg__(self) -> _Value:
        return self._new(self.spec, {c: -v for c, v in self._num.items()}, self._den)

    def __mul__(self, other: _Value | Scalar) -> _Value:
        if not isinstance(other, _Value):
            return self._new(self.spec, *_times(self._num, self._den, Fraction(other)))
        self._check(other)
        basis = self.spec.basis
        if (rows := self._left) is None:
            rows = self._left = _rows(basis, self._num)
        if (cols := other._right) is None:
            cols = other._right = _cols(basis, other._num)
        kind = type(self) if isinstance(other, CohClass) else type(other)
        return kind._new(self.spec, *_convolve(basis, rows, self._den, cols, other._den))

    def __rmul__(self, other: Scalar) -> _Value:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> _Value:
        if exponent < 0:
            raise ValueError("negative powers are not defined; use inverse()")
        out = self.one(self.spec)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        same_spec = self.spec is other.spec or self.spec == other.spec
        return same_spec and self._den == other._den and self._num == other._num

    __hash__ = None  # type: ignore[assignment]

    def _inverse_from(self, seed: _Value | Fraction, failure: str) -> _Value:
        """The inverse, given a seed s for which x = 1 - self * s is nilpotent:
        (1 + x + x^2 + ...) * s.

        Products and the h-rule preserve degree (h-exponent plus base degree),
        since ``RingSpec`` admits only rule terms of degree n + 1.  Classes
        without scalar part therefore span degrees 1..n + base_cutoff, and any
        x whose coefficients have no scalar part has x^k = 0 by k = n + base_cutoff + 1.
        If x^k does not vanish by then, raises :class:`NotInvertibleError` with
        the message ``failure``.
        """
        one = self.one(self.spec)
        x = one - self * seed
        acc, power = one, x
        for _ in range(self.spec.n + self.spec.base_cutoff + 1):
            if power.is_zero():
                break
            acc = acc + power
            power = power * x
        if not power.is_zero():
            raise NotInvertibleError(failure)
        return acc * seed

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class CohClass(_Value):
    """An element of the truncated ring described by a :class:`RingSpec`."""

    __slots__ = ()

    def __init__(self, spec: RingSpec, parts: Iterable[Mapping[Mono, Scalar]]):
        """Coerce caller input, one dict per power of h (any number of them)."""
        basis = spec.basis
        size, mono_index = basis.size, basis.mono_index
        terms: dict[int, Fraction] = {}
        for k, poly in enumerate(parts):
            for mono, c in poly.items():
                i = mono_index(mono)
                if i >= 0:
                    key = k * size + i
                    terms[key] = terms.get(key, 0) + Fraction(c)
        den = lcm(*(c.denominator for c in terms.values()))
        num: Numerators = {}
        for key, c in terms.items():
            v = c.numerator * (den // c.denominator)
            for t, w in basis.normal(key).items():
                num[t] = num.get(t, 0) + v * w
        self.spec = spec
        self._num, self._den = _lowest({t: v for t, v in num.items() if v}, den * basis.tail_den)
        self._left = self._right = None

    @classmethod
    def _reduced(cls, spec: RingSpec, num: Numerators, den: int) -> CohClass:
        """A class from numerators below top over den > 0, not yet in lowest terms."""
        return cls._new(spec, *_lowest(num, den))

    # -- constructors -----------------------------------------------------

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

    @property
    def scalar_part(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def coefficient(self, h_exp: int, mono: Mono = ()) -> Fraction:
        basis = self.spec.basis
        i = basis.mono_index(tuple(mono))
        if i < 0 or not 0 <= h_exp <= self.spec.n:
            return Fraction(0)
        return Fraction(self._num.get(h_exp * basis.size + i, 0), self._den)

    def terms(self) -> Iterator[tuple[int, Mono, Fraction]]:
        """(h-exponent, base monomial, coefficient) in basis order."""
        basis = self.spec.basis
        for key in sorted(self._num):
            k, i = divmod(key, basis.size)
            yield k, basis.monos[i], Fraction(self._num[key], self._den)

    # -- arithmetic -------------------------------------------------------

    # The shared arithmetic, bound here too so that each value type carries
    # its own entry points (``perfbench/tracer.py`` wraps a type's own methods).
    __add__ = _Value.__add__
    __mul__ = _Value.__mul__

    def inverse(self) -> CohClass:
        """Invert a unit: nonzero scalar part plus a nilpotent remainder."""
        c0 = self.scalar_part
        if not c0:
            raise NotInvertibleError("degree-0 part is zero")
        return self._inverse_from(Fraction(1) / c0, "remainder is not nilpotent")

    def integrate(self) -> Fraction | CohClass:
        """Fiber integration: the coefficient of h^n.

        Returns a rational in absolute mode and the base class multiplying
        h^n in relative mode.
        """
        low = self.spec.n * self.spec.basis.size
        if not self.spec.is_relative:
            return Fraction(self._num.get(low, 0), self._den)
        base_part = {key - low: v for key, v in self._num.items() if key >= low}
        return CohClass._reduced(self.spec, base_part, self._den)

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
        return _join([self._term_str(*item) for item in items])
