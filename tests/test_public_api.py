"""The package's public surface: what `import hilbstrata` exports, and the
test-only members that no longer live in the library."""

import hilbstrata
from hilbstrata import qseries, strata, tables
from hilbstrata.laurent import LaurentPoly
from hilbstrata.qseries import QSeries

PUBLIC = [
    "InexactDivisionError",
    "LaurentPoly",
    "MarkedDiagram",
    "NotInvertibleError",
    "QSeries",
    "StrataMatrix",
    "VerificationReport",
    "alpha",
    "build_R",
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
    "euler_identity_check",
    "gauss_binomial",
    "mu_max",
    "mu_of_partition",
    "partitions_of",
    "product_factors",
    "q_boxes",
    "series_H",
    "series_Hnnr",
    "series_Y0",
    "series_Y0_dual",
    "series_poincare_H",
    "tangent_character",
    "verify_all",
]

# members gone from the library; tests that used them carry their own oracles
REMOVED = [
    (LaurentPoly, "eval_fraction"),
    (LaurentPoly, "is_polynomial"),
    (LaurentPoly, "__rsub__"),
    (LaurentPoly, "is_zero"),
    (LaurentPoly, "valuation"),
    (QSeries, "truncate"),
    (QSeries, "__sub__"),
    (QSeries, "scale"),
    (QSeries, "shift_q"),
    (QSeries, "to_json"),
    (QSeries, "from_json"),
    (qseries, "q_pochhammer"),
    (qseries, "series_Hnnr_rows"),
    (qseries, "_nested_rows"),
    (strata, "ginv_entry"),
    (strata, "lemma_identity_check"),
    (tables, "table_from_csv"),
    (tables, "table_from_json"),
]


def test_public_surface():
    assert sorted(hilbstrata.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(hilbstrata, name)] == []
    assert [f"{owner.__name__}.{name}" for owner, name in REMOVED
            if hasattr(owner, name)] == []
