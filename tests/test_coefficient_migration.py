"""The coefficient-migration sign on a base with an odd coefficient.

Every complex assembled from structure maps inserts a map f into a word
and moves its output coefficient c back past the prefix; over Q, c is
always the unit and the |c| term of that sign never shows.  The fixture
``odd_coefficient_dga`` (e f = x g over Lambda(x), |x| = 1) makes it
show: each complex below squares to zero only with the sign, and its
differential is pinned by a digest.
"""
import hashlib

import pytest
from test_hochschild_assembly import ordered_digest

from hochtrace import bimod, cdga
from hochtrace.ainf import AInfMorphism, check_morphism, check_stasheff, check_unital, from_dga
from hochtrace.bimod import bar_resolution_module, left_module_from_algebra
from hochtrace.fixtures import (
    odd_coefficient_dga,
    twisted_odd_coefficient_dga,
)
from hochtrace.grdlin import chain_map_witness, homology_window
from hochtrace.hoch import (
    BarConnesComplex,
    hh_algebra_induced_map,
    hh_of_algebra,
)


def _digest(gmap):
    """Hash of a GradedMap's entries, labels sorted by repr, coefficients
    written as numerator/denominator."""
    h = hashlib.sha256()
    for src in sorted(gmap.entries, key=repr):
        h.update(repr(src).encode())
        col = gmap.entries[src]
        for tgt in sorted(col, key=repr):
            c = col[tgt]
            h.update(f"{tgt!r}={c.numerator}/{c.denominator};".encode())
    return h.hexdigest()[:16]


def _full_window(cx):
    degrees = cx.space.degrees()
    return homology_window(cx, degrees[0], degrees[-1])


def _hh(alg):
    return hh_of_algebra(alg, 3).complex


def _bar_resolution(alg):
    return bar_resolution_module(alg, left_module_from_algebra(alg), 3).kmodule.complex


def _bar_connes(alg):
    return BarConnesComplex(alg, 3).complex


# (complex, dimension, homology window, digest of d), measured before the
# assembly sites shared one insertion kernel
PINNED = [
    (_hh, 680,
     {-7: 1, -6: 13, -5: 60, -4: 138, -3: 155, -2: 70, -1: 8, 0: 6, 1: 3},
     "59975df1be7d9473"),
    (_bar_resolution, 2720,
     {-10: 1, -9: 15, -8: 93, -7: 303, -6: 543, -5: 502, -4: 183, -3: 1, -2: 4, -1: 3},
     "024c34ca3cee251b"),
    (_bar_connes, 362,
     {-5: 1, -4: 4, -3: 11, -2: 17, -1: 10, 0: 4, 1: 3},
     "3cb566bc37e27bec"),
]
IDS = ["hh", "bar_resolution", "bar_connes"]


@pytest.fixture(scope="module")
def alg():
    return from_dga(odd_coefficient_dga())


def test_the_fixture_is_a_unital_ainf_algebra_with_an_odd_coefficient(alg):
    dga = odd_coefficient_dga()
    assert dga.mult[("e", "f")] == {("x", "g"): 1}
    assert dga.base.degree("x") == 1
    assert check_stasheff(alg, 3).ok
    assert check_unital(alg).ok


@pytest.mark.parametrize("build, dim, window, digest", PINNED, ids=IDS)
def test_complexes_on_an_odd_coefficient(alg, build, dim, window, digest):
    cx = build(alg)          # d*d = 0 is certified on construction
    assert cx.space.dim == dim
    assert _full_window(cx) == window
    assert _digest(cx.d) == digest


def _parity_without_the_coefficient(prefix_degree, map_degree, coeff_degree):
    return prefix_degree * map_degree % 2


@pytest.mark.parametrize("build", [p[0] for p in PINNED], ids=IDS)
def test_dropping_the_coefficient_term_breaks_d_squared(alg, build, monkeypatch):
    # the one parity function, under both names it is called by
    for module in (cdga, bimod):
        monkeypatch.setattr(module, "migration_parity", _parity_without_the_coefficient)
    with pytest.raises(ValueError, match=r"d\*d != 0"):
        build(alg)


@pytest.mark.parametrize("dga", [odd_coefficient_dga, twisted_odd_coefficient_dga],
                         ids=["odd", "twisted_odd"])
def test_induced_map_with_an_odd_coefficient_output(dga):
    # phi_1(e) = e + x g, the identity on 1, f and g: a strict morphism whose
    # f-block output carries the odd x, so the induced map moves x back past
    # the rotated prefix; dropping that migration sign breaks the chain-map
    # check at Hochschild degrees 2 and 3 (not at 1)
    alg = from_dga(dga())
    table = {(v,): {("1", v): 1} for v in alg.gens.labels()}
    table[("e",)] = {("1", "e"): 1, ("x", "g"): 1}
    phi = AInfMorphism(alg, alg, {1: table})
    assert check_morphism(phi, 3).ok
    hh = hh_of_algebra(alg, 2)
    assert hh.space.dim == 168
    induced = hh_algebra_induced_map(phi, hh, hh)
    assert chain_map_witness(induced, hh.d, hh.d) is None
    # taken while the map was built per label (b, vm, xs)
    assert ordered_digest(induced) == "36f5fdef4862ebb3"
