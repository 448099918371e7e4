"""Import rules that keep the two routes and the verify suite independent,
checked on the source with ast.

(a) packed, the closed forms' kernel, imports nothing from strata or
    qseries.
(b) strata reads packed only as packed.<name>: packed_column inside
    _closed_form, never the closed forms' internals (t_column, gauss_at,
    distinct_parts), and otherwise only the shared digit_bits, unpack
    and chi_at_one.
(c) The verify suite compares the routes' outputs and never reuses
    their arithmetic: verify, which holds its comparisons, imports
    nothing from packed or strata, and neither verify nor
    strata.verify_all, its table of checks, names packed or the matrix
    pipeline's kernel (_div_one_minus, _invert_nested).
(d) The check of Cauchy's q-binomial theorem (verify._cauchy_cells)
    names neither packed nor laurent._q_pascal_row, the recurrence that
    builds the Gaussian binomials it checks, and strata, whose routes
    never read a Gaussian binomial, imports no gauss_binomial.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hilbstrata"

SHARED = {"digit_bits", "unpack", "chi_at_one"}
CLOSED_FORM_INTERNALS = {"t_column", "gauss_at", "distinct_parts"}
ROUTE_NAMES = {"packed", "_div_one_minus", "_invert_nested"}


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def imported_modules(tree):
    """(module, name) for every import: ("strata", None) for `from .strata
    import x` or `import hilbstrata.strata`, ("", "strata") for `from . import strata`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("hilbstrata").lstrip(".")
            out += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name.removeprefix("hilbstrata").lstrip("."), None)
                    for alias in node.names]
    return out


def functions(tree):
    """Top-level function name -> its node (nested functions stay inside)."""
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def packed_reads(tree):
    """(enclosing top-level function or None, attribute) for each packed.<attribute>."""
    out = []
    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        out += [(owner, sub.attr) for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id == "packed"]
    return out


def imports_from(module, banned):
    """The imports of module that reach one of the banned modules."""
    return [(source, name) for source, name in imported_modules(parse(module))
            if source.split(".")[0] in banned or (not source and name in banned)]


def test_packed_imports_neither_strata_nor_qseries():
    assert imports_from("packed", {"strata", "qseries"}) == []


def test_strata_reads_packed_only_through_its_shared_names():
    tree = parse("strata")
    assert ("packed", None) not in imported_modules(tree)
    assert [name for module, name in imported_modules(tree) if module == "packed"] == []
    reads = packed_reads(tree)
    assert {owner for owner, attr in reads if attr == "packed_column"} == {"_closed_form"}
    assert [read for read in reads if read[1] in CLOSED_FORM_INTERNALS] == []
    assert {attr for _, attr in reads} - {"packed_column"} <= SHARED
    assert {"digit_bits", "unpack"} <= {attr for _, attr in reads}


def names_in(node):
    """Every name and attribute name that the node's source mentions."""
    return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)})


def test_verify_imports_neither_packed_nor_strata():
    assert imports_from("verify", {"packed", "strata"}) == []


def test_verify_suite_names_no_route_kernel():
    assert names_in(parse("verify")) & ROUTE_NAMES == set()


def test_verify_all_names_no_route_kernel():
    assert names_in(functions(parse("strata"))["verify_all"]) & ROUTE_NAMES == set()


def test_cauchy_check_shares_no_recurrence_with_its_kernel():
    named = names_in(functions(parse("verify"))["_cauchy_cells"])
    assert "gauss_binomial" in named
    assert named & {"packed", "_q_pascal_row"} == set()


def test_strata_imports_no_gauss_binomial():
    assert [(module, name) for module, name in imported_modules(parse("strata"))
            if name == "gauss_binomial"] == []
