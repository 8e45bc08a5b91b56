"""The classical comparison oracle and the bar it is built on, bit for bit.

``ClassicalHochschild`` reads each structure map once per generator pair
and inserts its relation rows keyed by the least-repr rank of each tagged
label; ``tensor_inf`` reads the factors' arities grouped by side and each
prefix degree once.  These tests pin, as ordered digests taken before
these changes, the oracle's differential and its relation count, and the
tables and differential of three infinity tensor products.  Coefficients go in by repr and keys in insertion order, so a
change to the relation order, to the eliminator's pivots or to the bar's
column order shows here even where homology and every certificate agree.
"""
import hashlib
import random

import pytest
from test_hochschild_assembly import ordered_digest

from hochtrace.ainf import from_dga
from hochtrace.bimod import diagonal_bimodule, left_module_from_algebra, tensor_inf
from hochtrace.cdga import BaseCDGA, KAlgebra, cdga_as_kalgebra
from hochtrace.fixtures import exterior_odd, fixture_cdga, mu3_algebra, random_dga
from hochtrace.grdlin import GradedSpace
from hochtrace.hoch import classical_hh


def table_digest(tables):
    """Hash of a bimodule's structure tables as stored, in the order of
    ``ordered_digest``: shapes, keys and each column's keys in insertion
    order, coefficients by repr."""
    entries = [(shape, [(key, list(col.items())) for key, col in table.items()])
               for shape, table in tables.items()]
    return hashlib.sha256(repr(entries).encode()).hexdigest()[:16]


def int_table_dga():
    # Q<1, x>, |x| = 1, x x = 0, every table entry an int
    gens = GradedSpace([("1", 0), ("x", 1)])
    mult = {}
    for v in gens.labels():
        mult[("1", v)] = mult[(v, "1")] = {("1", v): 1}
    return KAlgebra(BaseCDGA.rationals(), gens, mult, "1")


def _random_dgas():
    # the draws of test_hoch_oracles.py::test_classical_comparison_random_sample
    rng = random.Random(7)
    return [random_dga(rng) for _ in range(5)]


# (dga, h, dim, nnz, relation count, ordered digest of d)
CLASSICAL = {
    "dual": (lambda: cdga_as_kalgebra(fixture_cdga("dual")), 3, 30, 15, 180, "dc4998f35a9ca7fb"),
    "s2": (lambda: cdga_as_kalgebra(fixture_cdga("s2")), 3, 30, 15, 180, "dc4998f35a9ca7fb"),
    "cp2": (lambda: cdga_as_kalgebra(fixture_cdga("cp2")), 3, 120, 99, 3120, "11c1c2a1e205beee"),
    "exterior_odd1": (lambda: cdga_as_kalgebra(exterior_odd(1)), 3, 30, 14, 180,
                      "cb9073cb20a298d5"),
    "int_table": (int_table_dga, 3, 30, 14, 180, "cb9073cb20a298d5"),
    "random0": (lambda: _random_dgas()[0], 2, 39, 46, 780, "85cbfae7f8d7696b"),
    "random1": (lambda: _random_dgas()[1], 2, 14, 5, 84, "315842242b6feb27"),
    "random2": (lambda: _random_dgas()[2], 2, 14, 5, 84, "b14c4ba2427322fa"),
    "random3": (lambda: _random_dgas()[3], 2, 39, 12, 780, "135b9eb89b215a99"),
    "random4": (lambda: _random_dgas()[4], 2, 84, 43, 5208, "c249382b133ac498"),
}


@pytest.mark.parametrize("name", CLASSICAL)
def test_classical_differential_is_bit_identical(name):
    make, h, dim, nnz, relations, digest = CLASSICAL[name]
    dga = make()
    cl = classical_hh(dga, diagonal_bimodule(from_dga(dga)), h)
    assert cl.space.dim == dim
    assert sum(len(col) for col in cl.d.entries.values()) == nnz
    assert cl._relation_count == relations
    assert ordered_digest(cl.d) == digest


def _cp2_diagonal():
    # the diagonal bimodule whose tensor square is the oracle's bar on cp2
    return diagonal_bimodule(from_dga(cdga_as_kalgebra(fixture_cdga("cp2"))))


def _mu3_pair(right):
    alg = mu3_algebra()
    return diagonal_bimodule(alg), right(alg)


# (factors, h, rank, shapes, ordered digests of the tables and of d)
TENSORS = {
    "cp2_diag_diag_h3": (lambda: (_cp2_diagonal(), _cp2_diagonal()), 3, 360,
                         [(0, 1), (1, 0)], "cbc96bb092c63b31", "0781a7d6e8846b73"),
    "mu3_diag_diag_h2": (lambda: _mu3_pair(diagonal_bimodule), 2, 117,
                         [(0, 1), (1, 0), (0, 2), (2, 0)], "8ec21fe3775a954e",
                         "23768e0c8b8c01aa"),
    "mu3_diag_left_h3": (lambda: _mu3_pair(left_module_from_algebra), 3, 360,
                         [(1, 0), (2, 0)], "9464c177a0ea3156", "dd4349fdaddbedaf"),
}


@pytest.mark.parametrize("name", TENSORS)
def test_tensor_inf_is_bit_identical(name):
    make, h, rank, shapes, tables, d = TENSORS[name]
    product = tensor_inf(*make(), h)
    assert product.kmodule.gens.dim == rank
    assert list(product.tables) == shapes
    assert table_digest(product.tables) == tables
    assert ordered_digest(product.kmodule.d) == d
