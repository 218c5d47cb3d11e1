"""Finite Laurent polynomials in the equivariant parameter t.

Coefficients are :class:`~gwone.rings.CohClass` values; exponents may be
negative.  The coefficient of t^{-2-a} is where correlators store the a-th
cotangent-power invariant, so extraction by exponent is the main read API.

A product is one call of the ring kernel (``rings._convolve``), which builds
no class per pair of t-coefficients.  Only nonzero classes are stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from .rings import CohClass, NotInvertibleError, RingSpec, Scalar, SpecMismatchError
from .rings import _convolve, _geometric_series


class LaurentPoly:
    """A finite t-Laurent polynomial with truncated-ring coefficients."""

    __slots__ = ("spec", "_terms")

    def __init__(self, spec: RingSpec, terms: Mapping[int, CohClass]):
        cleaned: dict[int, CohClass] = {}
        for exp, cls in terms.items():
            if cls.spec is not spec and cls.spec != spec:
                raise SpecMismatchError("coefficient from a different ring")
            if not cls.is_zero():
                cleaned[exp] = cls
        self.spec = spec
        self._terms = cleaned

    @classmethod
    def _new(cls, spec: RingSpec, terms: dict[int, CohClass]) -> LaurentPoly:
        """A polynomial from kernel-built terms: nonzero classes of ``spec``."""
        out = object.__new__(cls)
        out.spec = spec
        out._terms = terms
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> LaurentPoly:
        return cls(spec, {})

    @classmethod
    def one(cls, spec: RingSpec) -> LaurentPoly:
        return cls(spec, {0: CohClass.one(spec)})

    @classmethod
    def single(cls, spec: RingSpec, t_exp: int, coeff: CohClass | Scalar) -> LaurentPoly:
        if isinstance(coeff, (int, Fraction)):
            coeff = CohClass.scalar(spec, coeff)
        return cls(spec, {t_exp: coeff})

    @classmethod
    def linear(cls, spec: RingSpec, h_coeff: Scalar, t_coeff: Scalar) -> LaurentPoly:
        """The linear form h_coeff*h + t_coeff*t."""
        basis = spec.basis
        h, t = Fraction(h_coeff), Fraction(t_coeff)
        terms = {}
        if h:
            # h * m_0 is basis element ``size``; when n = 0 it is h^{n+1}, rewritten by the h-rule.
            h_part = basis.fold({}, {basis.size: h}) if spec.n == 0 else {basis.size: h}
            if h_part:
                terms[0] = CohClass._new(spec, h_part)
        if t:
            terms[1] = CohClass._new(spec, {0: t})
        return cls._new(spec, terms)

    # -- inspection -------------------------------------------------------

    def coefficient(self, t_exp: int) -> CohClass:
        return self._terms.get(t_exp, CohClass.zero(self.spec))

    def support(self) -> list[int]:
        return sorted(self._terms)

    def t_min(self) -> int:
        return min(self._terms)

    def t_max(self) -> int:
        return max(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[int, CohClass]]:
        return iter(sorted(self._terms.items()))

    def is_homogeneous(self, total_degree: int) -> bool:
        """True when the t^j coefficient is concentrated in degree total-j."""
        return all(
            cls.is_homogeneous(total_degree - exp) for exp, cls in self._terms.items()
        )

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: LaurentPoly) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError("operands live in different rings")

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        self._check(other)
        merged = dict(self._terms)
        for exp, cls in other._terms.items():
            if exp in merged:
                merged[exp] = merged[exp] + cls
            else:
                merged[exp] = cls
        return LaurentPoly(self.spec, merged)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._new(self.spec, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: LaurentPoly | CohClass | Scalar) -> LaurentPoly:
        if isinstance(other, LaurentPoly):
            self._check(other)
            return LaurentPoly._new(self.spec, _convolve(self.spec, self._terms, other._terms))
        return LaurentPoly(self.spec, {e: c * other for e, c in self._terms.items()})

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
        return LaurentPoly._new(self.spec, {e + k: c for e, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        same_spec = self.spec is other.spec or self.spec == other.spec
        return same_spec and self._terms == other._terms

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
        for exp in sorted(self._terms, reverse=True):
            cls = self._terms[exp]
            body = str(cls)
            multi = sum(1 for _ in cls.terms()) > 1
            if exp == 0:
                pieces.append(f"({body})" if multi and len(self._terms) > 1 else body)
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
