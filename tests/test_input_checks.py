"""Every constructor rejects a structure-map table or a linear map that is
not of its shape: a key of the wrong width, or an entry of the wrong
degree, raises ValueError naming the offending key; a bimodule table of a
shape that no bimodule over its algebras has raises ValueError naming
that shape.

The algebra is ``mu3_algebra``: shifted generators 1 (degree -1), a (1)
and c (4) over Q; the dga has generators 1 (0), x (2) and y (3).  Each
width row keeps every entry of the degree that
its first slots ask for, so it is only the width check that rejects it.

The rows of ``test_a_bad_input_is_rejected`` each reach one more raise:
an algebra with a structure map above its truncation arity, a complex
whose differential is not a degree +1 endomap, a classical comparison
of two Hochschild complexes truncated at different degrees, an
infinity tensor product whose factors do not share a middle algebra:
one side without one, or two with different generators; and the maps
on basis positions: a composite or a sum of maps between other spaces,
a chain-map check whose differentials live on other spaces, and a
window check of a map that is no chain map.
"""
import re

import pytest

from hochtrace.ainf import AInfAlgebra, AInfMorphism, from_dga
from hochtrace.bimod import (
    AInfBimodule,
    BimoduleMap,
    diagonal_bimodule,
    left_module_from_algebra,
    tensor_inf,
)
from hochtrace.cdga import BaseCDGA, KAlgebra, cdga_as_kalgebra
from hochtrace.fixtures import fixture_cdga, mu3_algebra
from hochtrace.grdlin import (
    Complex,
    GradedMap,
    GradedSpace,
    chain_map_witness,
    is_quasi_iso_window,
)
from hochtrace.hoch import classical_hh, compare_classical, hh_complex


def _dga(table):
    gens = GradedSpace([("1", 0), ("x", 2), ("y", 3)])
    return KAlgebra(BaseCDGA.rationals(), gens, table, "1")


def _algebra(table):
    alg = mu3_algebra()
    return AInfAlgebra(alg.base, alg.gens, {3: table}, 3)


def _morphism(table):
    alg = mu3_algebra()
    return AInfMorphism(alg, alg, {1: table})


def _bimodule(table):
    alg = mu3_algebra()
    return AInfBimodule(alg, alg, alg.module, {(1, 0): table}, 2)


def _left_module(table):
    alg = mu3_algebra()
    return AInfBimodule(alg, None, alg.module, {(0, 1): table}, 2)


def _owned_by_the_module(table):
    alg = mu3_algebra()
    return AInfBimodule(alg, alg, alg.module, {(0, 0): table}, 2)


def _bimodule_map(table):
    bim = diagonal_bimodule(mu3_algebra())
    return BimoduleMap(bim, bim, 0, {(0, 0): table})


def _graded_map(column):
    gens = mu3_algebra().gens
    return GradedMap(gens, gens, 1, {"a": column})


def _graded_map_on_positions(column):
    gens = mu3_algebra().gens
    return GradedMap.on_positions(gens, gens, 1, {gens.position["a"]: {
        gens.position[w]: c for w, c in column.items()}})


REJECTED = [
    # a product x x has degree |x| + |x| = 4, not |y| = 3
    pytest.param(_dga, {("x", "x"): {("1", "y"): 1}}, ("x", "x"), id="dga-degree"),
    # mu_3 on two generators: 1 + |1| + |a| = 1 = |a|
    pytest.param(_algebra, {("1", "a"): {("1", "a"): 1}}, ("1", "a"), id="algebra-width"),
    # mu_3(a, a, a) has degree 1 + 3 = 4, not |a| = 1
    pytest.param(_algebra, {("a", "a", "a"): {("1", "a"): 1}}, ("a", "a", "a"),
                 id="algebra-degree"),
    # f_1 on two generators: |1| = -1 = |1|
    pytest.param(_morphism, {("1", "a"): {("1", "1"): 1}}, ("1", "a"), id="morphism-width"),
    # f_1(a) has degree |a| = 1, not |c| = 4
    pytest.param(_morphism, {("a",): {("1", "c"): 1}}, ("a",), id="morphism-degree"),
    # mu_{1,0} on three generators: 1 + |1| + |a| = 1 = |a|
    pytest.param(_bimodule, {("1", "a", "c"): {("1", "a"): 1}}, ("1", "a", "c"),
                 id="bimodule-width"),
    # mu_{1,0}(a, a) has degree 1 + 2 = 3, not |a| = 1
    pytest.param(_bimodule, {("a", "a"): {("1", "a"): 1}}, ("a", "a"), id="bimodule-degree"),
    # mu_{0,1} over the zero right algebra, with an entry of the right degree
    pytest.param(_left_module, {("a", "1"): {("1", "1"): 1}}, (0, 1), id="bimodule-zero-side"),
    # mu_{0,0} is the differential of the free module, never a table, not
    # even an empty one
    pytest.param(_owned_by_the_module, {}, (0, 0), id="bimodule-module-differential"),
    # f_{0,0} on two generators: 0 + |a| = 1 = |a|
    pytest.param(_bimodule_map, {("a", "c"): {("1", "a"): 1}}, ("a", "c"),
                 id="bimodule-map-width"),
    # f_{0,0}(a) has degree |a| = 1, not |c| = 4
    pytest.param(_bimodule_map, {("a",): {("1", "c"): 1}}, ("a",), id="bimodule-map-degree"),
    # a degree-1 map sends a (1) to degree 2, not to c (4)
    pytest.param(_graded_map, {"c": 1}, "a", id="graded-map-degree"),
    # the same entry as int columns, named by its labels
    pytest.param(_graded_map_on_positions, {"c": 1}, "a", id="graded-map-positions-degree"),
]


@pytest.mark.parametrize("build, table, named", REJECTED)
def test_a_table_of_the_wrong_shape_is_rejected(build, table, named):
    with pytest.raises(ValueError, match=re.escape(repr(named))):
        build(table)


def _classical_against_a_longer_complex():
    dga = cdga_as_kalgebra(fixture_cdga("dual"))
    alg = from_dga(dga)
    diag = diagonal_bimodule(alg)
    return compare_classical(classical_hh(dga, diag, 2), hh_complex(alg, diag, 3))


_LINE = GradedSpace([("a", 1)])
_POINT = GradedSpace([("b", 1)])
# a(0) -> b(1); the degree-0 map a -> a is no chain map: f d (a) = 0, d f (a) = b
_ARROW = GradedSpace([("a", 0), ("b", 1)])
_ARROW_COMPLEX = Complex(_ARROW, GradedMap(_ARROW, _ARROW, 1, {"a": {"b": 1}}))

BAD_INPUTS = [
    # mu_3 != 0 on an algebra truncated at arity 2
    pytest.param(lambda: mu3_algebra(n_max=2),
                 "structure map above the declared truncation arity", id="algebra-arity"),
    pytest.param(lambda: Complex(_LINE, GradedMap(_LINE, GradedSpace([("a", 2)]), 1, {})),
                 "differential must be an endomap of the space", id="complex-endomap"),
    pytest.param(lambda: Complex(_LINE, GradedMap(_LINE, _LINE, 0, {})),
                 "differential must have degree +1", id="complex-degree"),
    # classical h = 2 against A-infinity h = 3
    pytest.param(_classical_against_a_longer_complex,
                 "the two complexes do not share a labeled basis", id="classical-basis"),
    # a left module has no right algebra for the diagonal bimodule's left one
    pytest.param(lambda: tensor_inf(left_module_from_algebra(mu3_algebra()),
                                    diagonal_bimodule(mu3_algebra()), 1),
                 "middle algebra mismatch", id="tensor-one-sided-middle"),
    # mu3's generators 1, a, c against the dual numbers' 1, x
    pytest.param(lambda: tensor_inf(diagonal_bimodule(mu3_algebra()), diagonal_bimodule(
                     from_dga(cdga_as_kalgebra(fixture_cdga("dual")))), 1),
                 "middle algebra mismatch", id="tensor-middle-generators"),
    pytest.param(lambda: GradedMap.identity(_LINE).compose(GradedMap.identity(_POINT)),
                 "composition mismatch", id="map-compose"),
    pytest.param(lambda: GradedMap.identity(_LINE) + GradedMap.zero(_LINE, _LINE, 1),
                 "sum mismatch", id="map-sum"),
    pytest.param(lambda: chain_map_witness(GradedMap.identity(_LINE), GradedMap.zero(_POINT, _POINT, 1),
                                           GradedMap.zero(_LINE, _LINE, 1)),
                 "chain map and differentials do not share their spaces", id="chain-map-spaces"),
    pytest.param(lambda: is_quasi_iso_window(GradedMap(_ARROW, _ARROW, 0, {"a": {"a": 1}}),
                                             _ARROW_COMPLEX, _ARROW_COMPLEX, 0, 1),
                 "not a chain map", id="quasi-iso-chain-map"),
]


@pytest.mark.parametrize("build, message", BAD_INPUTS)
def test_a_bad_input_is_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
