import random
from fractions import Fraction

import pytest

from hochtrace.ainf import AInfMorphism, check_morphism, from_dga, unit_algebra
from hochtrace.bimod import (
    dga_module_bimodule,
    diagonal_bimodule,
    end_algebra,
    left_module_from_algebra,
    v_map,
)
from hochtrace.cdga import BaseCDGA, KAlgebra, cdga_as_kalgebra
from hochtrace.fixtures import (
    dual_numbers,
    exterior_odd,
    fixture_algebra,
    fixture_cdga,
    mu3_algebra,
    random_dga,
    sphere3_with_differential,
    _kalg,
)
from hochtrace.grdlin import (
    GradedMap,
    GradedSpace,
    HomologyBasis,
    ONE,
    chain_map_witness,
    homology_window,
    is_quasi_iso_window,
    sparse_rank,
)
from hochtrace.hoch import (
    BarConnesComplex,
    ConnesComplex,
    classical_hh,
    compare_classical,
    hh_algebra_induced_map,
    hh_complex,
    hh_of_algebra,
    rotation_to_bar_hc,
)
from hochtrace.report import CertificateError


def test_classical_comparison_fixtures():
    for name in ("dual", "s2", "cp2"):
        dga = cdga_as_kalgebra(fixture_cdga(name))
        alg = from_dga(dga)
        diag = diagonal_bimodule(alg)
        cl = classical_hh(dga, diag, 3)
        ai = hh_complex(alg, diag, 3)
        iso = compare_classical(cl, ai)
        assert chain_map_witness(iso, cl.d, ai.d) is None
        assert homology_window(cl.complex, -3, 1) == homology_window(ai.complex, -3, 1)


def test_classical_comparison_has_teeth():
    # odd-degree fixtures force genuinely nontrivial sign patterns
    dga = cdga_as_kalgebra(exterior_odd(1))
    alg = from_dga(dga)
    diag = diagonal_bimodule(alg)
    iso = compare_classical(classical_hh(dga, diag, 3), hh_complex(alg, diag, 3))
    flips = sum(1 for v, col in iso.entries.items() if col.get(v) == -ONE)
    assert flips > 0


def test_classical_comparison_names_the_edge_it_cannot_match():
    # a dropped or tripled entry of the A-infinity differential at v -> w
    # leaves the defect of the stated sign map at exactly that edge
    dga = cdga_as_kalgebra(fixture_cdga("cp2"))
    alg = from_dga(dga)
    diag = diagonal_bimodule(alg)
    cl, ai = classical_hh(dga, diag, 2), hh_complex(alg, diag, 2)
    v, col = next((v, col) for v, col in ai.d.entries.items() if col)
    w = next(iter(col))
    c = col.pop(w)
    with pytest.raises(CertificateError) as caught:
        compare_classical(cl, ai)
    assert caught.value.check == "diagonal sign map failed the chain-map check"
    assert caught.value.witness == (v, {w: 1})
    col[w] = 3 * c
    with pytest.raises(CertificateError) as caught:
        compare_classical(cl, ai)
    assert caught.value.witness == (v, {w: -2})


def test_classical_comparison_rejects_a_gauge_conjugated_differential():
    # S d S with S = (-1)^{Hochschild degree} is a differential with the
    # same homology and a diagonal sign iso to the true one; a search for
    # any diagonal iso accepts it, the stated sign map does not
    dga = cdga_as_kalgebra(fixture_cdga("cp2"))
    alg = from_dga(dga)
    diag = diagonal_bimodule(alg)
    cl, ai = classical_hh(dga, diag, 3), hh_complex(alg, diag, 3)
    for (_b, _vm, xs), col in cl.d.entries.items():
        for w in col:
            if (len(xs) + len(w[2])) % 2:
                col[w] = -col[w]
    with pytest.raises(CertificateError) as caught:
        compare_classical(cl, ai)
    assert caught.value.check == "diagonal sign map failed the chain-map check"
    assert caught.value.witness == (("1", "1", ("1", "1")), {("1", "1", ("1",)): -2})


def test_classical_hochschild_names_a_relation_that_hits_the_basis():
    # x acting by 2x on the left is not a module: (x x) 1 = x2 but
    # x (x 1) = 4 x2, so the relation u2 on (x, s1 (x) sx, 1) reduces to a
    # canonical basis label
    dga = cdga_as_kalgebra(fixture_cdga("cp2"))
    alg = from_dga(dga)
    doubled = {(a, b): col if a == dga.unit_gen else {k: 2 * c for k, c in col.items()}
               for (a, b), col in dga.mult.items()}
    bim = dga_module_bimodule(alg, alg, dga.module, left_action=doubled,
                              right_action=dga.mult)
    with pytest.raises(CertificateError) as caught:
        classical_hh(dga, bim, 1)
    assert caught.value.check == "relation span hit the basis"
    assert caught.value.witness == (("u2", "x", ("1", (), "x"), "1"),
                                    {(("1", (), "1"), "x2"): 1})
    assert isinstance(caught.value, ValueError)


def test_classical_hochschild_names_a_u1_relation_that_hits_the_basis():
    # x acting by 2x on the right: the relations u1 come first at each
    # (beta, m, x), and u1 on (x, sx (x) s1, 1) reduces to a canonical label
    dga = cdga_as_kalgebra(fixture_cdga("cp2"))
    alg = from_dga(dga)
    doubled = {(a, b): col if b == dga.unit_gen else {k: 2 * c for k, c in col.items()}
               for (a, b), col in dga.mult.items()}
    bim = dga_module_bimodule(alg, alg, dga.module, left_action=dga.mult,
                              right_action=doubled)
    with pytest.raises(CertificateError) as caught:
        classical_hh(dga, bim, 1)
    assert caught.value.check == "relation span hit the basis"
    assert caught.value.witness == (("u1", "x", ("x", (), "1"), "1"),
                                    {(("1", (), "1"), "x2"): 1})


def test_classical_hochschild_inserts_u1_before_u2():
    # only x x = 2 x2 on the right, the unit kept: at (x, sx (x) s1, 1), the
    # first failing triple, u1 and u2 each reduce to the canonical label
    # (1 (x) 1) (x) x2, so the witness names whichever goes in first
    dga = cdga_as_kalgebra(fixture_cdga("cp2"))
    alg = from_dga(dga)
    right = dict(dga.mult)
    right[("x", "x")] = {("1", "x2"): 2}
    bim = dga_module_bimodule(alg, alg, dga.module, left_action=dga.mult, right_action=right)
    with pytest.raises(CertificateError) as caught:
        classical_hh(dga, bim, 1)
    assert caught.value.witness == (("u1", "x", ("x", (), "1"), "1"),
                                    {(("1", (), "1"), "x2"): 1})


def test_classical_comparison_of_an_int_table_dga_is_exact():
    # int tables keep both differentials int; the diagonal iso must still
    # hold exact signs, not int / int quotients
    gens = GradedSpace([("1", 0), ("x", 1)])
    mult = {}
    for v in gens.labels():
        mult[("1", v)] = mult[(v, "1")] = {("1", v): 1}
    dga = KAlgebra(BaseCDGA.rationals(), gens, mult, "1")
    alg = from_dga(dga)
    diag = diagonal_bimodule(alg)
    cl, ai = classical_hh(dga, diag, 3), hh_complex(alg, diag, 3)
    for cx in (cl, ai):
        assert {type(c) for col in cx.d.entries.values() for c in col.values()} == {int}
    signs = [c for col in compare_classical(cl, ai).entries.values() for c in col.values()]
    assert all(type(c) in (int, Fraction) and c in (1, -1) for c in signs)
    assert -1 in signs


def test_classical_comparison_random_sample():
    rng = random.Random(7)
    for _ in range(5):
        dga = random_dga(rng)
        alg = from_dga(dga)
        diag = diagonal_bimodule(alg)
        cl = classical_hh(dga, diag, 2)
        ai = hh_complex(alg, diag, 2)
        compare_classical(cl, ai)
        assert homology_window(cl.complex, -2, 1) == homology_window(ai.complex, -2, 1)


def test_classical_comparison_on_every_random_dga():
    # random_dga draws from finitely many family members: 400 draws reach
    # all 30, so this covers every dga any seed can draw
    rng = random.Random(0)
    distinct = {}
    for _ in range(400):
        dga = random_dga(rng)
        key = (tuple(dga.gens.basis), repr(sorted(dga.mult.items())),
               repr(sorted(dga.module.d.entries.items())))
        distinct.setdefault(key, dga)
    assert len(distinct) == 30
    for dga in distinct.values():
        alg = from_dga(dga)
        diag = diagonal_bimodule(alg)
        compare_classical(classical_hh(dga, diag, 2), hh_complex(alg, diag, 2))


def test_induced_map_identity_and_functoriality():
    alg = fixture_algebra("cp2")
    hh = hh_of_algebra(alg, 3)
    ident = AInfMorphism.identity(alg)
    assert hh_algebra_induced_map(ident, hh, hh) == GradedMap.identity(hh.space)


def test_induced_map_of_the_action_map_mu3():
    # v: R -> End(R) for mu3 has v_2 on the odd letter a, so the Koszul sign
    # of the rotated letters that v_2 eats decides whether v_* is a chain map
    alg = mu3_algebra()
    end = from_dga(end_algebra(alg.module), n_max=4)
    v = v_map(alg, left_module_from_algebra(alg), end_ainf=end)
    source, target = hh_of_algebra(alg, 2), hh_of_algebra(end, 2)
    induced = hh_algebra_induced_map(v, source, target)
    assert chain_map_witness(induced, source.d, target.d) is None


def test_induced_map_quasi_iso():
    # projection from a model with an acyclic ideal is a strict quasi-iso;
    # the induced map on normalized HH is one too (Lemma 3.7.8 shape)
    big = _kalg(
        [("1", 0), ("x", 2), ("u", 1), ("w", 2)],
        {("x", "x"): {}, ("x", "u"): {}, ("u", "x"): {}, ("x", "w"): {},
         ("w", "x"): {}, ("u", "u"): {}, ("u", "w"): {}, ("w", "u"): {},
         ("w", "w"): {}},
        {"u": {"w": 1}},
    )
    big_alg = from_dga(big)
    s2 = fixture_algebra("s2")
    proj = AInfMorphism(big_alg, s2, {1: {("1",): {("1", "1"): ONE},
                                          ("x",): {("1", "x"): ONE},
                                          ("u",): {}, ("w",): {}}})
    assert check_morphism(proj, 3).ok
    hh_big = hh_of_algebra(big_alg, 4, normalized=True)
    hh_s2 = hh_of_algebra(s2, 4, normalized=True)
    induced = hh_algebra_induced_map(proj, hh_big, hh_s2)
    assert is_quasi_iso_window(induced, hh_big.complex, hh_s2.complex, -1, 3)


@pytest.mark.parametrize("make, h", [
    *[(lambda name=name: fixture_algebra(name), 3) for name in ("dual", "s2", "s3")],
    *[(lambda: unit_algebra(sphere3_with_differential()), h) for h in (1, 2, 3)],
], ids=["dual", "s2", "s3", "over_s3_with_d_h1", "over_s3_with_d_h2", "over_s3_with_d_h3"])
def test_rotation_map_is_chain_map(make, h):
    # over sphere3_with_differential() this failed with witness
    # (('y', '1', ()), {('x', (('1',),)): 1}) while the bar Connes
    # complex dropped its (d_R b, words) term
    alg = make()
    hc = ConnesComplex(hh_of_algebra(alg, h))
    target = BarConnesComplex(alg, h + 1)
    rot = rotation_to_bar_hc(hc, target)
    assert chain_map_witness(rot, hc.d, target.d) is None


def test_rotation_map_single_element():
    # n = 0: a single sR-letter maps to itself as a one-letter bar word
    alg = fixture_algebra("s2")
    hc = ConnesComplex(hh_of_algebra(alg, 2))
    target = BarConnesComplex(alg, 3)
    rot = rotation_to_bar_hc(hc, target)
    col = rot.column(("1", "x", ()))
    assert col == {("1", (("x",),)): ONE}


def test_rotation_quasi_iso_window_dual():
    # degreewise-finite fixture: direct windowed comparison is exact
    alg = fixture_algebra("dual")
    hc = ConnesComplex(hh_of_algebra(alg, 5))
    target = BarConnesComplex(alg, 6)
    rot = rotation_to_bar_hc(hc, target)
    # homology of HC(R) in stable degrees must inject/match through rotation
    for t in (-2, -1, 0):
        hs = HomologyBasis(hc.complex, t)
        ht = HomologyBasis(target.complex, t)
        rows = [ht.coords(rot(rep)) for rep in hs.representatives]
        assert sparse_rank(rows) == hs.dim


def test_classical_hh_of_the_dual_numbers_over_itself():
    # R = Q[x]/x^2 as a classical R-R-bimodule: both actions are the
    # multiplication table; HH(R, R) has dims 2, 1, 1, 1 in degrees 0, -1, -2, -3
    dga = cdga_as_kalgebra(dual_numbers())
    alg = from_dga(dga)
    bim = dga_module_bimodule(alg, alg, dga.module, left_action=dga.mult,
                              right_action=dga.mult)
    dims = homology_window(classical_hh(dga, bim, 4).complex, -3, 0)
    assert dims == {-3: 1, -2: 1, -1: 1, 0: 2}
