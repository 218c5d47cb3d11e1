"""Finite Laurent polynomials in the equivariant parameter t.

Coefficients are classes of one :class:`~gwone.rings.RingSpec`; exponents
may be negative.  The coefficient of t^{-2-a} is where correlators store
the a-th cotangent-power invariant, so extraction by exponent is the main
read API.

A polynomial is stored as one dict of int numerators keyed by combined
key e*stride + key (``rings``' numbered basis key of the term's class part,
offset by its power of t; see ``rings.Basis.stride``), over one positive
denominator, in lowest terms, so equal polynomials store equal data.  A
class stores the same dict for t^0, so a class is a polynomial's
coefficient without a copy of the layout.  Both types share one value
core (``rings._Value``), which holds the storage and the arithmetic, so
this module adds only what a polynomial reads and builds differently.  Sums,
negation, scalar products and ``shift_t`` stay on ints; a product is one
call of the ring kernel (``rings._convolve``) and one gcd, and a sum or
product with a class is again a polynomial.  Every value, polynomial or
class, prepares its operand lists for the kernel once, on its first use as
a left or right factor, and keeps them while it lives; they depend on the
value alone.  :meth:`LaurentPoly.sum`
adds many polynomials, such as one comb degree's terms, in one pass with
one reduction.  A class is built only where a coefficient leaves the
polynomial (``coefficient``, ``items``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Iterator, Mapping

from .rings import CohClass, NotInvertibleError, Numerators, RingSpec, Scalar, SpecMismatchError
from .rings import _Value, _join, _lowest, _sum


class LaurentPoly(_Value):
    """A finite t-Laurent polynomial with truncated-ring coefficients."""

    __slots__ = ()

    def __init__(self, spec: RingSpec, terms: Mapping[int, CohClass]):
        stride = spec.basis.stride
        for cls in terms.values():
            if cls.spec is not spec and cls.spec != spec:
                raise SpecMismatchError("coefficient from a different ring")
        self.spec = spec
        self._num, self._den = _sum(
            ({exp * stride + key: v for key, v in cls._num.items()}, cls._den)
            for exp, cls in terms.items()
        )
        self._left = self._right = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def single(cls, spec: RingSpec, t_exp: int, coeff: CohClass | Scalar) -> LaurentPoly:
        if isinstance(coeff, (int, Fraction)):
            coeff = CohClass.scalar(spec, coeff)
        return cls(spec, {t_exp: coeff})

    @classmethod
    def linear(cls, spec: RingSpec, h_coeff: Scalar, t_coeff: Scalar) -> LaurentPoly:
        """The linear form h_coeff*h + t_coeff*t."""
        h, t = Fraction(h_coeff), Fraction(t_coeff)
        den = lcm(h.denominator, t.denominator)
        coeffs = [t.numerator * (den // t.denominator), h.numerator * (den // h.denominator)]
        return cls._form(spec, 1, coeffs, den)

    @classmethod
    def linear_power(cls, spec: RingSpec, k: int, p: int) -> LaurentPoly:
        """(h + k*t)^p in closed form, from the binomial coefficients C(p, j) * k^{p-j}."""
        last = spec.n + spec.base_cutoff
        return cls._form(spec, p, [comb(p, j) * k ** (p - j) for j in range(min(p, last) + 1)])

    @classmethod
    def _form(cls, spec: RingSpec, degree: int, coeffs: Iterable[int], den: int = 1) -> LaurentPoly:
        """The form sum_j coeffs[j] * h^j * t^{degree-j} / den, for int coefficients.

        Each h^j * m_0 (basis key j*size) goes through ``Basis.normal``, so a
        power of h above n follows the h-rule; one above n + base_cutoff
        vanishes by degree, so callers may stop the coefficients there.
        """
        basis = spec.basis
        size, stride = basis.size, basis.stride
        num: Numerators = {}
        for j, a in enumerate(coeffs):
            if a:
                low = (degree - j) * stride
                for key, w in basis.normal(j * size).items():
                    num[low + key] = a * w
        return cls._new(spec, *_lowest(num, den * basis.tail_den))

    # -- inspection -------------------------------------------------------

    def coefficient(self, t_exp: int) -> CohClass:
        stride = self.spec.basis.stride
        low = t_exp * stride
        num = {c - low: v for c, v in self._num.items() if low <= c < low + stride}
        return CohClass._reduced(self.spec, num, self._den)

    def support(self) -> list[int]:
        stride = self.spec.basis.stride
        return sorted({c // stride for c in self._num})

    def t_max(self) -> int:
        return max(self._num) // self.spec.basis.stride

    def _groups(self) -> dict[int, Numerators]:
        """Each nonzero t-coefficient's numerators by basis key, over ``_den``, by exponent."""
        stride = self.spec.basis.stride
        groups: dict[int, Numerators] = {}
        for c, v in self._num.items():
            e, key = divmod(c, stride)
            groups.setdefault(e, {})[key] = v
        return groups

    def items(self) -> Iterator[tuple[int, CohClass]]:
        """(t-exponent, coefficient) for each nonzero coefficient, ascending, in one pass."""
        groups, spec, den = self._groups(), self.spec, self._den
        return iter([(e, CohClass._reduced(spec, groups[e], den)) for e in sorted(groups)])

    # -- arithmetic -------------------------------------------------------

    @classmethod
    def sum(cls, spec: RingSpec, polys: Iterable[LaurentPoly]) -> LaurentPoly:
        """The sum of ``polys`` (zero when there are none), in one pass over one
        running denominator; a generator is consumed one polynomial at a time."""

        def operands() -> Iterator[tuple[Numerators, int]]:
            for poly in polys:
                if poly.spec is not spec and poly.spec != spec:
                    raise SpecMismatchError("summand from a different ring")
                yield poly._num, poly._den

        return cls._new(spec, *_sum(operands()))

    # The shared arithmetic, bound here too so that each value type carries
    # its own entry points (``perfbench/tracer.py`` wraps a type's own methods).
    __add__ = _Value.__add__
    __mul__ = _Value.__mul__

    def shift_t(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        shift = k * self.spec.basis.stride
        return LaurentPoly._new(self.spec, {c + shift: v for c, v in self._num.items()}, self._den)

    def inverse(self) -> LaurentPoly:
        """Invert a t-unit.

        The top t-coefficient must be a unit of the coefficient ring; the
        remaining terms must be nilpotent.  The inverse is then the finite
        geometric series in the nilpotent remainder, so the result is again
        a finite Laurent polynomial and p * p.inverse() == 1 exactly.
        """
        if self.is_zero():
            raise NotInvertibleError("zero is not invertible")
        top = self.t_max()
        seed = LaurentPoly.single(self.spec, -top, self.coefficient(top).inverse())
        return self._inverse_from(seed, "lower-order terms are not nilpotent")

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        pieces = []
        coefficients = list(self.items())
        for exp, cls in reversed(coefficients):
            body = str(cls)
            multi = len(cls._num) > 1
            if exp == 0:
                pieces.append(f"({body})" if multi and len(coefficients) > 1 else body)
                continue
            tpart = "t" if exp == 1 else f"t^{exp}"
            if body == "1":
                pieces.append(tpart)
            elif body == "-1":
                pieces.append("-" + tpart)
            elif multi:
                pieces.append(f"({body})*{tpart}")
            else:
                pieces.append(f"{body}*{tpart}")
        return _join(pieces)
