"""Integral coefficients are Python ints from the structure tables to the
certificates; a Fraction is built only where elimination divides by a
pivot other than +-1."""
from fractions import Fraction

from hochtrace.ainf import AInfAlgebra, AInfMorphism, from_dga
from hochtrace.bimod import BimoduleMap, diagonal_bimodule
from hochtrace.cdga import BaseCDGA
from hochtrace.fixtures import fixture_algebra, mu3_algebra, odd_coefficient_dga
from hochtrace.grdlin import GradedSpace, HomologyBasis, _Eliminator, kernel_basis
from hochtrace.hoch import hh_of_algebra
from hochtrace.wheeled import free_multilinear_algebra, gc1_complex


def coefficient_types(columns):
    return {type(c) for col in columns.values() for c in col.values()}


def test_integral_coefficients_are_int():
    odd = hh_of_algebra(from_dga(odd_coefficient_dga()), 3)
    differentials = [
        hh_of_algebra(fixture_algebra("cp2"), 3).d,
        hh_of_algebra(mu3_algebra(), 3).d,
        odd.d,
        gc1_complex(3).d,
    ]
    for d in differentials:
        assert coefficient_types(d.entries) == {int}, d
    # homology representatives are kernel combos, stored through int_first:
    # on the odd-coefficient HH, whose pivots are not all +-1, every entry
    # is integral and so an int, whatever the pivot order
    for t in odd.space.degrees():
        reps = HomologyBasis(odd.complex, t).representatives
        assert coefficient_types(dict(enumerate(reps))) <= {int}, t
    for table in free_multilinear_algebra(3).mu.values():
        assert coefficient_types(table) == {int}
    # a table written with Fractions is stored with ints
    gens = GradedSpace([("a", 1), ("c", 4), ("e", 7)])
    alg = AInfAlgebra(BaseCDGA.rationals(), gens,
                      {3: {("a", "a", "a"): {("1", "c"): Fraction(1)},
                           ("a", "c", "a"): {("1", "e"): Fraction(-2),
                                             ("1", "c"): Fraction(0)}}},
                      3)
    assert alg.mu[3] == {("a", "a", "a"): {("1", "c"): 1},
                         ("a", "c", "a"): {("1", "e"): -2}}
    assert coefficient_types(alg.mu[3]) == {int}


def test_morphism_tables_are_int():
    # AInfMorphism and BimoduleMap store their tables as the structure
    # tables are: Fraction(1) becomes 1 and an all-zero column is dropped
    alg = mu3_algebra()
    f = AInfMorphism(alg, alg, {1: {("a",): {("1", "a"): Fraction(1)},
                                    ("c",): {("1", "c"): Fraction(0)}}})
    assert f.components == {1: {("a",): {("1", "a"): 1}}}
    assert coefficient_types(f.components[1]) == {int}
    bim = diagonal_bimodule(alg)
    g = BimoduleMap.strict(bim, bim, {("a",): {("1", "a"): Fraction(1)},
                                      ("c",): {("1", "c"): 0}})
    assert g.components == {(0, 0): {("a",): {("1", "a"): 1}}}
    assert coefficient_types(g.components[(0, 0)]) == {int}


def test_a_non_unit_pivot_builds_a_fraction():
    elim = _Eliminator()
    elim._insert({elim._key("a"): 3, elim._key("b"): 1})
    # the pivot dict is keyed by repr; read it back by label
    (key, row), = elim.pivots.items()
    row = {elim._labels[k]: c for k, c in row.items()}
    assert elim._labels[key] == "a"
    assert row == {"a": 1, "b": Fraction(1, 3)}
    assert type(row["a"]) is int and type(row["b"]) is Fraction
    # integral quotients of a non-unit pivot are stored as int, in the
    # pivot row and in a kernel combo
    elim = _Eliminator()
    elim._insert({elim._key("a"): 2, elim._key("b"): 4})
    (_key, row), = elim.pivots.items()
    row = {elim._labels[k]: c for k, c in row.items()}
    assert row == {"a": 1, "b": 2}
    assert [type(c) for c in (row["a"], row["b"])] == [int, int]
    # the kernel pass pivots on b, 4, and the combo of the second row
    # is {1: 1, 0: -12 * Fraction(1, 4)}, stored as int
    combo, = kernel_basis([{"a": 2, "b": 4}, {"a": 6, "b": 12}])
    assert combo == {1: 1, 0: -3}
    assert [type(c) for c in combo.values()] == [int, int]
    # unit pivots only, but Fraction factors: the third row reduces to
    # {b: Fraction(1)}, so its combo takes Fraction(-1) at row 0, stored
    # as int
    combo, = kernel_basis([{"b": 1}, {"a": 1, "b": 1}, {"a": Fraction(1, 2), "b": Fraction(3, 2)}])
    assert combo == {2: 1, 1: Fraction(-1, 2), 0: -1}
    assert type(combo[0]) is int

