"""Hypothesis profiles for the test suite.

The default run loads the ``tier1`` profile: hypothesis' own settings and
example counts, with no per-example deadline.  The default 200-ms deadline
failed examples that take 20-40 ms whenever the host stalled, as a
``FlakyFailure`` that then passed on replay; every property here is exact,
so a slow example says nothing about correctness.

``--hypothesis-profile=kernel`` is the deeper pass over the ring kernel, the
comb terms, the closed forms of phi, the one-pass relative forms (the joined
numerator, ``linear_power_sum`` behind the unit factors and the
Schubert term, one row of ``linear_power_sum`` against the full sum's row,
the linear-CY chain of unit factors and phi_e = h^{n+1} * u_e),
``LaurentPoly.above`` against the polynomial's items, the linear-CY
recurrences (``linear_cy_series``, ``derive_linear_cy_lambdas``), the
per-model cached linear-CY series coefficients (against the phi series times
the multiplier series, one ``QSeries`` product, requested in random order
from cold caches), the one-pass index-one Fano correlator, the cached
Stirling rows, the mixed-radix monomial product table, the q-series product
against the slot-dict pairwise oracle, the q-series ``exp`` homomorphism
and multiplicative substitution, the comb terms' int tooth product against
the ring product, the int-form helpers of ``laurent`` (the linear power, the
cut form product, the tooth pass, the weighted sum and the reduction) against
ring arithmetic, the one chain recursion ``calabi_yau._chain_sums`` (random
seed forms and teeth that depend on their start) against the sum over every
chain, the mirror chain sums and ``double_comb_series`` (through
``exp`` and ``log``) and the zero-skipping class JSON against their oracles:
1000 examples per property test and no per-example deadline.  A property
with its own ``max_examples`` keeps that count under every profile.
"""

from hypothesis import settings

settings.register_profile("kernel", max_examples=1000, deadline=None)
settings.register_profile("tier1", deadline=None)
settings.load_profile("tier1")
