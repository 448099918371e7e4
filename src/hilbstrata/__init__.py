"""Exact E-polynomials of generator-count strata of punctual Hilbert schemes.

Two pipelines compute the same tables: closed-form q-series expansion,
and the nested-scheme series (re-derived from torus fixed points)
inverted through the Gaussian-binomial and punctured-plane relations.
Every strata row is a q-series, and both pipelines build it from
products of (1 - t^a q^b)^{+-1} factors, both on packed integers
(t -> 2^K) by separate formulas.  Everything is exact integer
arithmetic; the verification suite checks the pipelines against each
other, against identities on Laurent polynomials and the q-series
factor steps, against the fixed-point sums and the partition census,
and against the known small tables.  Neither pipeline nor the suite
forms a product of two series: every product is a run of factor steps.
"""

from .laurent import (
    InexactDivisionError,
    LaurentPoly,
    gauss_binomial,
)
from .qseries import (
    NotInvertibleError,
    QSeries,
    product_factors,
    series_H,
    series_Hnnr,
    series_poincare_H,
    series_Y0,
)
from .diagrams import (
    MarkedDiagram,
    alpha,
    count_partitions_with_mu,
    e_poly_Bnnr_fixed,
    e_poly_Hnnr_fixed,
    elbows,
    enumerate_marked,
    mu_max,
    mu_of_partition,
    partitions_of,
    q_boxes,
    tangent_character,
)
from .strata import (
    StrataMatrix,
    VerificationReport,
    chi_series,
    closed_form_B,
    closed_form_X,
    compute_B,
    compute_X,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "InexactDivisionError",
    "LaurentPoly",
    "MarkedDiagram",
    "NotInvertibleError",
    "QSeries",
    "StrataMatrix",
    "VerificationReport",
    "alpha",
    "chi_series",
    "closed_form_B",
    "closed_form_X",
    "compute_B",
    "compute_X",
    "count_partitions_with_mu",
    "e_poly_Bnnr_fixed",
    "e_poly_Hnnr_fixed",
    "elbows",
    "enumerate_marked",
    "gauss_binomial",
    "mu_max",
    "mu_of_partition",
    "partitions_of",
    "product_factors",
    "q_boxes",
    "series_H",
    "series_Hnnr",
    "series_poincare_H",
    "series_Y0",
    "tangent_character",
    "verify_all",
]
