"""Power series in q, truncated at a caller-supplied order.

Coefficients are :class:`~gwone.laurent.LaurentPoly` values and every
operation is exact modulo q^{order+1}.  Exponential, logarithm and the
substitution q -> q*e^{f(q)} are finite computations at fixed truncation,
so no analytic limits are involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .laurent import LaurentPoly
from .rings import CohClass, RingSpec, Scalar, SpecMismatchError


class QSeries:
    """A q-power series truncated at q^order with Laurent coefficients."""

    __slots__ = ("spec", "order", "_coeffs")

    def __init__(self, spec: RingSpec, order: int, coeffs: Sequence[LaurentPoly]):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the truncation allows")
        for c in coeffs:
            if c.spec is not spec and c.spec != spec:
                raise SpecMismatchError("coefficient from a different ring")
        while len(coeffs) < order + 1:
            coeffs.append(LaurentPoly.zero(spec))
        self.spec = spec
        self.order = order
        self._coeffs = tuple(coeffs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec, order: int) -> QSeries:
        return cls(spec, order, ())

    @classmethod
    def one(cls, spec: RingSpec, order: int) -> QSeries:
        return cls(spec, order, [LaurentPoly.one(spec)])

    @classmethod
    def from_coefficients(
        cls, spec: RingSpec, order: int, values: Mapping[int, LaurentPoly]
    ) -> QSeries:
        coeffs = [LaurentPoly.zero(spec)] * (order + 1)
        for d, val in values.items():
            if 0 <= d <= order:
                coeffs[d] = val
        return cls(spec, order, coeffs)

    @classmethod
    def from_scalars(
        cls, spec: RingSpec, order: int, values: Mapping[int, Scalar]
    ) -> QSeries:
        return cls.from_coefficients(
            spec,
            order,
            {d: LaurentPoly.single(spec, 0, Fraction(v)) for d, v in values.items()},
        )

    # -- inspection -------------------------------------------------------

    def coefficient(self, d: int) -> LaurentPoly:
        if not 0 <= d <= self.order:
            raise IndexError(f"q-degree {d} outside truncation {self.order}")
        return self._coeffs[d]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def truncate(self, order: int) -> QSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.spec, order, self._coeffs[: order + 1])

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: QSeries) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError("operands live in different rings")
        if self.order != other.order:
            raise ValueError("operands have different truncation orders")

    def __add__(self, other: QSeries) -> QSeries:
        self._check(other)
        return QSeries(
            self.spec,
            self.order,
            [a + b for a, b in zip(self._coeffs, other._coeffs)],
        )

    def __sub__(self, other: QSeries) -> QSeries:
        return self + (-other)

    def __neg__(self) -> QSeries:
        return QSeries(self.spec, self.order, [-c for c in self._coeffs])

    def __mul__(self, other: QSeries | LaurentPoly | CohClass | Scalar) -> QSeries:
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._check(other)
        out = [LaurentPoly.zero(self.spec) for _ in range(self.order + 1)]
        for i, a in enumerate(self._coeffs):
            if a.is_zero():
                continue
            for j in range(self.order - i + 1):
                b = other._coeffs[j]
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return QSeries(self.spec, self.order, out)

    def __rmul__(self, other: Scalar) -> QSeries:
        return self.scale(other)

    def scale(self, factor: LaurentPoly | CohClass | Scalar) -> QSeries:
        return QSeries(self.spec, self.order, [c * factor for c in self._coeffs])

    def shift(self, k: int) -> QSeries:
        """Multiply by q^k, truncating at the series order."""
        if k < 0:
            raise ValueError("negative q-shift")
        out = [LaurentPoly.zero(self.spec)] * (self.order + 1)
        for d, c in enumerate(self._coeffs):
            if d + k <= self.order:
                out[d + k] = c
        return QSeries(self.spec, self.order, out)

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
        """exp(f) as the finite Taylor sum; f must have zero constant term."""
        if not self.coefficient(0).is_zero():
            raise ValueError("exp requires a zero constant term")
        out = QSeries.one(self.spec, self.order)
        term = QSeries.one(self.spec, self.order)
        for k in range(1, self.order + 1):
            term = term * self * Fraction(1, k)
            if term.is_zero():
                break
            out = out + term
        return out

    def log(self) -> QSeries:
        """log(f) as the finite Taylor sum; f must have constant term 1."""
        if self.coefficient(0) != LaurentPoly.one(self.spec):
            raise ValueError("log requires constant term 1")
        u = self - QSeries.one(self.spec, self.order)
        out = QSeries.zero(self.spec, self.order)
        power = u
        for k in range(1, self.order + 1):
            if power.is_zero():
                break
            out = out + power * Fraction((-1) ** (k + 1), k)
            power = power * u
        return out

    def substitute(self, inner: QSeries) -> QSeries:
        """Evaluate the series at q * e^{inner(q)}.

        ``inner`` must have zero constant term, so the substitution maps
        q-adic order to itself and the result is exact modulo q^{order+1}.
        """
        self._check(inner)
        if not inner.coefficient(0).is_zero():
            raise ValueError("substitution requires a zero constant term")
        growth = inner.exp()
        out = QSeries.from_coefficients(self.spec, self.order, {0: self.coefficient(0)})
        power = QSeries.one(self.spec, self.order)
        for d in range(1, self.order + 1):
            power = power * growth
            contribution = power.shift(d).scale(self.coefficient(d))
            out = out + contribution
        return out

    def __str__(self) -> str:
        pieces = [f"({c}) q^{d}" for d, c in enumerate(self._coeffs) if not c.is_zero()]
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}, {self})"
