"""Exact one-point genus-zero Gromov-Witten invariants.

Computes correlators of Fano and Calabi-Yau complete intersections in
projective space (and in projective bundles over a formal base) with exact
rational arithmetic throughout: hypergeometric Laurent polynomials, the
self-recursive Calabi-Yau comb formula, multiple-cover inversion, and the
mirror-map change of variables.
"""

from .calabi_yau import (
    CyRow,
    LambdaForm,
    LambdaShapeError,
    QuinticReport,
    aspinwall_morrison,
    correlator,
    cy_correlator,
    cy_term,
    enumerate_combs,
    lambda_readoff,
    quintic_report,
    solve_lambda,
    solve_lambdas_up_to,
    threefold_report,
)
from .correlators import (
    CIModel,
    Classification,
    ClassificationError,
    classify,
    fano_ge2_correlator,
    fano_index1_correlator,
    one_point_invariant,
    phi,
    pn_one_point,
)
from .laurent import LaurentPoly
from .mirror import (
    MirrorData,
    MirrorReport,
    corollary_transform,
    double_comb_series,
    mirror_coefficients,
    verify_mirror_identity,
)
from .relative import (
    RelativeModel,
    SchubertInput,
    derive_linear_cy_lambdas,
    linear_cy_expected,
    linear_cy_lambda,
    linear_cy_model,
    linear_cy_pushforward,
    linear_cy_series,
    porteous_expected,
    porteous_lines,
    relative_euler,
    relative_phi,
    relative_ring,
    relative_schubert_leading,
)
from .rings import CohClass, NotInvertibleError, RingSpec, SpecMismatchError
from .series import QSeries

__version__ = "0.1.0"

__all__ = [
    "CIModel",
    "Classification",
    "ClassificationError",
    "CohClass",
    "CyRow",
    "LambdaForm",
    "LambdaShapeError",
    "LaurentPoly",
    "MirrorData",
    "MirrorReport",
    "NotInvertibleError",
    "QSeries",
    "QuinticReport",
    "RelativeModel",
    "RingSpec",
    "SchubertInput",
    "SpecMismatchError",
    "aspinwall_morrison",
    "classify",
    "corollary_transform",
    "correlator",
    "cy_correlator",
    "cy_term",
    "derive_linear_cy_lambdas",
    "double_comb_series",
    "enumerate_combs",
    "fano_ge2_correlator",
    "fano_index1_correlator",
    "lambda_readoff",
    "linear_cy_expected",
    "linear_cy_lambda",
    "linear_cy_model",
    "linear_cy_pushforward",
    "linear_cy_series",
    "mirror_coefficients",
    "one_point_invariant",
    "phi",
    "pn_one_point",
    "porteous_expected",
    "porteous_lines",
    "quintic_report",
    "relative_euler",
    "relative_phi",
    "relative_ring",
    "relative_schubert_leading",
    "solve_lambda",
    "solve_lambdas_up_to",
    "threefold_report",
    "verify_mirror_identity",
]
