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
coefficient without a copy of the layout.  Sums, negation, scalar products
and ``shift_t`` stay on ints; a product is one call of the ring kernel
(``rings._convolve``) and one gcd.  A polynomial prepares its operand lists
for the kernel once, on its first use as a left or right factor, and keeps
them while it lives; they depend on the value alone.  :meth:`LaurentPoly.sum`
adds many polynomials, such as one comb degree's terms, in one pass with
one reduction.  A class is built only where a coefficient leaves the
polynomial (``coefficient``, ``items``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping

from .rings import CohClass, NotInvertibleError, Numerators, RingSpec, Scalar, SpecMismatchError
from .rings import _add, _cols, _convolve, _geometric_series, _lowest, _rows, _sum, _times


class LaurentPoly:
    """A finite t-Laurent polynomial with truncated-ring coefficients."""

    # _left and _right are this polynomial prepared as a product operand
    # (``rings._rows``, ``rings._cols``), built on first use; not part of the value.
    __slots__ = ("spec", "_num", "_den", "_left", "_right")

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

    @classmethod
    def _new(cls, spec: RingSpec, num: Numerators, den: int) -> LaurentPoly:
        """A polynomial from nonzero numerators by combined key, in lowest terms over den."""
        out = object.__new__(cls)
        out.spec = spec
        out._num = num
        out._den = den
        out._left = out._right = None
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> LaurentPoly:
        return cls._new(spec, {}, 1)

    @classmethod
    def one(cls, spec: RingSpec) -> LaurentPoly:
        return cls._new(spec, {0: 1}, 1)

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

    def t_min(self) -> int:
        return min(self._num) // self.spec.basis.stride

    def t_max(self) -> int:
        return max(self._num) // self.spec.basis.stride

    def is_zero(self) -> bool:
        return not self._num

    def items(self) -> Iterator[tuple[int, CohClass]]:
        """(t-exponent, coefficient) for each nonzero coefficient, ascending, in one pass."""
        stride, spec, den = self.spec.basis.stride, self.spec, self._den
        groups: dict[int, Numerators] = {}
        for c, v in self._num.items():
            e, key = divmod(c, stride)
            groups.setdefault(e, {})[key] = v
        return iter([(e, CohClass._reduced(spec, groups[e], den)) for e in sorted(groups)])

    def is_homogeneous(self, total_degree: int) -> bool:
        """True when the t^j coefficient is concentrated in degree total-j."""
        degree, stride = self.spec.basis.degree, self.spec.basis.stride
        return all(degree[c % stride] == total_degree - c // stride for c in self._num)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: LaurentPoly | CohClass) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError("operands live in different rings")

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        self._check(other)
        return LaurentPoly._new(self.spec, *_add(self._num, self._den, other._num, other._den))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._new(self.spec, {c: -v for c, v in self._num.items()}, self._den)

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

    def __mul__(self, other: LaurentPoly | CohClass | Scalar) -> LaurentPoly:
        if not isinstance(other, (LaurentPoly, CohClass)):
            return LaurentPoly._new(self.spec, *_times(self._num, self._den, Fraction(other)))
        self._check(other)
        basis = self.spec.basis
        if isinstance(other, CohClass):
            cols = _cols(basis, other._num)
        elif (cols := other._right) is None:
            cols = other._right = _cols(basis, other._num)
        if (rows := self._left) is None:
            rows = self._left = _rows(basis, self._num)
        return LaurentPoly._new(self.spec, *_convolve(basis, rows, self._den, cols, other._den))

    def __rmul__(self, other: Scalar) -> LaurentPoly:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> LaurentPoly:
        if exponent < 0:
            raise ValueError("negative powers are not defined; use inverse()")
        out = LaurentPoly.one(self.spec)
        for _ in range(exponent):
            out = out * self
        return out

    def shift_t(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        shift = k * self.spec.basis.stride
        return LaurentPoly._new(self.spec, {c + shift: v for c, v in self._num.items()}, self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        same_spec = self.spec is other.spec or self.spec == other.spec
        return same_spec and self._den == other._den and self._num == other._num

    __hash__ = None  # type: ignore[assignment]

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
        remainder = LaurentPoly.one(self.spec) - self * seed
        return _geometric_series(remainder, "lower-order terms are not nilpotent") * seed

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
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
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"
