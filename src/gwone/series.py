"""Power series in q, truncated at a caller-supplied order.

Coefficients are :class:`~gwone.laurent.LaurentPoly` values, given as one
map q-degree -> coefficient, and every operation is exact modulo
q^{order+1}; a product adds each q-degree in one pass (``LaurentPoly.sum``).
The exponential is its coefficient recurrence, O(order^2) coefficient
products.  Logarithm and the substitution q -> q*e^{f(q)} are each one power
sum (``rings._power_sum``) in a series without constant term, whose powers
vanish past q^order; the substitution's e^{f(q)} is the recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .laurent import LaurentPoly
from .rings import CohClass, RingSpec, Scalar, SpecMismatchError, _power_sum


class QSeries:
    """A q-power series truncated at q^order with Laurent coefficients."""

    __slots__ = ("spec", "order", "_coeffs")

    def __init__(self, spec: RingSpec, order: int, coeffs: Mapping[int, LaurentPoly]):
        """The series sum_d coeffs[d] * q^d; degrees above ``order`` are dropped."""
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        dense = [LaurentPoly.zero(spec)] * (order + 1)
        for d, c in coeffs.items():
            if d < 0:
                raise ValueError(f"negative q-degree {d}")
            if c.spec is not spec and c.spec != spec:
                raise SpecMismatchError("coefficient from a different ring")
            if d <= order:
                dense[d] = c
        self.spec = spec
        self.order = order
        self._coeffs = tuple(dense)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec, order: int) -> QSeries:
        return cls(spec, order, {})

    @classmethod
    def one(cls, spec: RingSpec, order: int) -> QSeries:
        return cls(spec, order, {0: LaurentPoly.one(spec)})

    @classmethod
    def from_scalars(cls, spec: RingSpec, order: int, values: Mapping[int, Scalar]) -> QSeries:
        scalars = {d: LaurentPoly.single(spec, 0, Fraction(v)) for d, v in values.items()}
        return cls(spec, order, scalars)

    # -- inspection -------------------------------------------------------

    def coefficient(self, d: int) -> LaurentPoly:
        if not 0 <= d <= self.order:
            raise IndexError(f"q-degree {d} outside truncation {self.order}")
        return self._coeffs[d]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: QSeries) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError("operands live in different rings")
        if self.order != other.order:
            raise ValueError("operands have different truncation orders")

    def __add__(self, other: QSeries) -> QSeries:
        self._check(other)
        pairs = enumerate(zip(self._coeffs, other._coeffs))
        return QSeries(self.spec, self.order, {d: a + b for d, (a, b) in pairs})

    def __sub__(self, other: QSeries) -> QSeries:
        return self + (-other)

    def __neg__(self) -> QSeries:
        return QSeries(self.spec, self.order, {d: -c for d, c in enumerate(self._coeffs)})

    def __mul__(self, other: QSeries | LaurentPoly | CohClass | Scalar) -> QSeries:
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._check(other)
        left = [(i, a) for i, a in enumerate(self._coeffs) if not a.is_zero()]
        right = {j: b for j, b in enumerate(other._coeffs) if not b.is_zero()}
        out = {
            d: LaurentPoly.sum(self.spec, (a * right[d - i] for i, a in left if d - i in right))
            for d in range(self.order + 1)
        }
        return QSeries(self.spec, self.order, out)

    def __rmul__(self, other: Scalar) -> QSeries:
        return self.scale(other)

    def scale(self, factor: LaurentPoly | CohClass | Scalar) -> QSeries:
        return QSeries(self.spec, self.order, {d: c * factor for d, c in enumerate(self._coeffs)})

    def shift(self, k: int) -> QSeries:
        """Multiply by q^k, truncating at the series order."""
        if k < 0:
            raise ValueError("negative q-shift")
        return QSeries(self.spec, self.order, {d + k: c for d, c in enumerate(self._coeffs)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            (self.spec is other.spec or self.spec == other.spec)
            and self.order == other.order
            and self._coeffs == other._coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    # -- transcendental-but-finite operations ------------------------------

    def exp(self) -> QSeries:
        """exp(f) by its recurrence; f must have zero constant term.

        E = exp(f) solves q E' = (q f') E, so E_0 = 1 and
        E_d = (1/d) * sum_{j=1}^{d} j*f_j * E_{d-j}: at most
        order*(order+1)/2 coefficient products, where the Taylor sum's powers
        of f take O(order^3).  A zero f_j or E_{d-j} costs no product, nor
        does E_0.
        """
        if not self.coefficient(0).is_zero():
            raise ValueError("exp requires a zero constant term")
        spec = self.spec
        weighted = [(j, f * j) for j, f in enumerate(self._coeffs) if j and not f.is_zero()]
        out = [LaurentPoly.one(spec)]
        for d in range(1, self.order + 1):
            terms = (
                jf if j == d else jf * out[d - j]
                for j, jf in weighted
                if j <= d and not out[d - j].is_zero()
            )
            out.append(LaurentPoly.sum(spec, terms) * Fraction(1, d))
        return QSeries(spec, self.order, dict(enumerate(out)))

    def log(self) -> QSeries:
        """log(f) as the finite Taylor sum; f must have constant term 1."""
        if self.coefficient(0) != LaurentPoly.one(self.spec):
            raise ValueError("log requires constant term 1")
        one = QSeries.one(self.spec, self.order)
        coefficients = [Fraction((-1) ** (k + 1), k) if k else 0 for k in range(self.order + 1)]
        return _power_sum(one, self - one, coefficients)[0]

    def substitute(self, inner: QSeries) -> QSeries:
        """Evaluate the series at y = q * e^{inner(q)}, as sum_d c_d * y^d.

        ``inner`` must have zero constant term, so y^d starts at q^d and the
        result is exact modulo q^{order+1}.
        """
        self._check(inner)
        if not inner.coefficient(0).is_zero():
            raise ValueError("substitution requires a zero constant term")
        y = inner.exp().shift(1)
        return _power_sum(QSeries.one(self.spec, self.order), y, self._coeffs)[0]

    def __str__(self) -> str:
        pieces = [f"({c}) q^{d}" for d, c in enumerate(self._coeffs) if not c.is_zero()]
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}, {self})"
