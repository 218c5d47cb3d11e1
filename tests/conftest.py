"""Hypothesis profiles for the test suite.

The default run uses hypothesis' own profile.  ``--hypothesis-profile=kernel``
is the deeper pass over the ring kernel, the comb terms, the closed forms
of phi, the one-pass relative forms (the joined numerator,
``linear_power_sum`` behind the inverse Euler factors and the Schubert
term, the linear-CY unit factors), the linear-CY recurrences
(``linear_cy_series``, ``derive_linear_cy_lambdas``), the per-model cached
linear-CY series coefficients (against the phi series times the multiplier
series, one ``QSeries`` product, requested in random order from cold
caches), the one-pass index-one
Fano correlator, the cached Stirling rows, the mixed-radix monomial product
table and the zero-skipping class JSON against their oracles: 1000 examples
per property test and no per-example deadline.
"""

from hypothesis import settings

settings.register_profile("kernel", max_examples=1000, deadline=None)
