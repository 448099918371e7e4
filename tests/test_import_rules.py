"""Import rules that keep the two routes and the verify suite independent,
checked on the source with ast.

(a) packed, the closed forms' kernel, imports nothing from strata or
    qseries.
(b) strata reads packed only as packed.<name>: packed_column inside
    _closed_form, never the closed forms' internals (t_column, gauss_at,
    distinct_parts), and otherwise only the shared digit_bits, unpack
    and chi_at_one.
(c) No function of the verify suite names packed or the matrix
    pipeline's kernel (_div_one_minus, _invert_nested): the suite
    compares the routes' outputs and never reuses their arithmetic.
(d) The check of Cauchy's q-binomial theorem (_cauchy_cells) names
    neither packed nor laurent._q_pascal_row, the recurrence that builds
    the Gaussian binomials it checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hilbstrata"

SHARED = {"digit_bits", "unpack", "chi_at_one"}
CLOSED_FORM_INTERNALS = {"t_column", "gauss_at", "distinct_parts"}
SUITE = ["_cauchy_cells", "grassmannian_cells", "convolution_cells",
         "_times_factor", "series_cells", "_at", "_norm",
         "_low", "_width", "verify_all"]
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


def test_packed_imports_neither_strata_nor_qseries():
    banned = {"strata", "qseries"}
    found = [(module, name) for module, name in imported_modules(parse("packed"))
             if module.split(".")[0] in banned or (not module and name in banned)]
    assert found == []


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


def test_verify_suite_names_no_route_kernel():
    defined = functions(parse("strata"))
    assert [name for name in SUITE if name not in defined] == []
    named = {name: sorted(names_in(defined[name])) for name in SUITE}
    assert {name: [n for n in names if n in ROUTE_NAMES] for name, names in named.items()
            if ROUTE_NAMES & set(names)} == {}


def test_cauchy_check_shares_no_recurrence_with_its_kernel():
    named = names_in(functions(parse("strata"))["_cauchy_cells"])
    assert "gauss_binomial" in named
    assert named & {"packed", "_q_pascal_row"} == set()
