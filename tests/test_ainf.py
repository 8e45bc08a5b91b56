import random
from fractions import Fraction

import pytest

from hochtrace.ainf import (
    AInfAlgebra,
    AInfMorphism,
    check_cinfty,
    check_morphism,
    check_stasheff,
    check_unital,
    check_unital_morphism,
    compose_morphisms,
    eta_morphism,
    flatten,
    from_dga,
    letter_to_pair,
    pair_to_letter,
    to_rational_algebra,
    unit_algebra,
)
from hochtrace.cdga import BaseCDGA
from hochtrace.fixtures import (
    broken_associativity_algebra,
    fixture_algebra,
    mu3_algebra,
    noncommutative_dga,
    odd_coefficient_dga,
    random_dga,
    sphere3_with_differential,
    sphere_cohomology,
)
from hochtrace.grdlin import ONE, GradedSpace


def test_from_dga_shift_and_signs():
    alg = fixture_algebra("s2")
    assert alg.gens.degree["1"] == -1
    assert alg.gens.degree["x"] == 1
    # 1*1 = 1 with |1| = 0 even: mu_2(s1 (x) s1) = s1
    assert alg.eval_mu((("1", "1"), ("1", "1"))) == {("1", "1"): ONE}
    # mu_2(sx (x) s1) = (-1)^{|x|} sx = sx (|x| = 2 even)
    assert alg.eval_mu((("1", "x"), ("1", "1"))) == {("1", "x"): ONE}
    # d = 0 implies mu_1 = 0
    assert not alg.eval_mu((("1", "x"),))


def test_from_dga_odd_sign():
    alg = fixture_algebra("s3")
    # |x| = 3 odd: mu_2(sx (x) s1) = -sx
    assert alg.eval_mu((("1", "x"), ("1", "1"))) == {("1", "x"): -ONE}


def test_stasheff_passes_for_fixtures():
    for name in ("s2", "s3", "s4", "cp2", "dual"):
        alg = fixture_algebra(name)
        assert check_stasheff(alg, 4).ok


def test_stasheff_passes_for_mu3_fixture():
    alg = mu3_algebra()
    assert check_stasheff(alg, 6).ok
    assert check_unital(alg).ok


def test_all_zero_maps_pass():
    base = BaseCDGA.rationals()
    gens = GradedSpace([("a", 0), ("b", 2)])
    alg = AInfAlgebra(base, gens, {}, 4)
    assert check_stasheff(alg, 5).ok


def test_broken_associativity_fails_at_3():
    alg = broken_associativity_algebra()
    report = check_stasheff(alg, 3)
    assert not report.ok
    name, witness = report.first_failure
    assert name == "n=3"
    assert witness is not None


def test_unital_fixture_and_perturbed():
    alg = fixture_algebra("s2")
    assert check_unital(alg).ok
    # perturb mu_4 on its s1 slots, keeping degree +1: |s1| = -1, |x| = 1
    bad = AInfAlgebra(alg.base, alg.gens,
                      {**alg.mu, 4: {("1", "x", "x", "1"): {("1", "x"): ONE}}},
                      alg.n_max, unit="1")
    report = check_unital(bad)
    assert report.first_failure == ("mu_{n>=3} vanish on s1 slots",
                                    ((4, ("1", "x", "x", "1")), {("1", "x"): ONE}))


def test_eta_is_strict_unital_morphism():
    for name in ("s2", "cp2", "dual"):
        alg = fixture_algebra(name)
        eta = eta_morphism(alg)
        assert check_morphism(eta, 3).ok
        assert check_unital_morphism(eta).ok


def test_unital_morphism_fails_on_an_s1_slot():
    alg = from_dga(odd_coefficient_dga())
    ident = AInfMorphism.identity(alg)
    assert check_unital_morphism(ident).ok
    # f_2(s1, e) = g: degree 0, and nonzero on an s1 slot
    bad = AInfMorphism(alg, alg, {**ident.components,
                                  2: {("1", "e"): {("1", "g"): ONE}}})
    report = check_unital_morphism(bad)
    assert report.first_failure == ("f_{n>=2} vanish on s1 slots",
                                    ((2, ("1", "e")), {("1", "g"): ONE}))


def test_cinfty_commutative_passes():
    for name in ("s2", "s3", "cp2"):
        alg = fixture_algebra(name)
        assert check_cinfty(alg, 4).ok


def test_cinfty_noncommutative_fails_at_11():
    alg = from_dga(noncommutative_dga())
    report = check_cinfty(alg, 2)
    assert not report.ok
    name, witness = report.first_failure
    assert name == "(p,q)=(1,1)"


def test_cinfty_mu3_fixture_fails():
    alg = mu3_algebra()
    report = check_cinfty(alg, 3)
    assert not report.ok


def test_identity_morphism_passes():
    alg = fixture_algebra("s2")
    ident = AInfMorphism.identity(alg)
    assert check_morphism(ident, 4).ok


def test_strict_dga_map_passes():
    # H*(S^2) -> Q killing x is a dga map
    s2 = fixture_algebra("s2")
    q = unit_algebra(s2.base.__class__.rationals()) if False else unit_algebra(s2.base)
    table = {("1",): {("1", "1"): ONE}, ("x",): {}}
    f = AInfMorphism(s2, q, {1: table})
    assert check_morphism(f, 4).ok


def test_nonmultiplicative_f1_fails_at_2():
    s2 = fixture_algebra("s2")
    q = unit_algebra(s2.base)
    # f1 sending both 1 and... x has degree 1 so the only linear maps to sQ
    # send x to 0; break multiplicativity by sending 1 to 2*1 instead.
    table = {("1",): {("1", "1"): Fraction(2)}}
    f = AInfMorphism(s2, q, {1: table})
    report = check_morphism(f, 2)
    assert not report.ok
    assert report.first_failure[0] == "n=2"


def test_composition_unit_and_associativity():
    rng = random.Random(19)
    s2 = fixture_algebra("s2")
    ident = AInfMorphism.identity(s2)
    # g with a nontrivial quadratic part: g = id + f_2 where f_2 must keep
    # the morphism equation; use the identity composed with itself plus a
    # formal quadratic correction that validates.
    f2 = {("x", "x"): {("1", "1"): Fraction(0)}}
    g = AInfMorphism(s2, s2, {1: ident.components[1]})
    assert compose_morphisms(g, ident).components == g.components
    # associativity on random strict morphisms between random dgas
    for _ in range(5):
        dga = random_dga(rng)
        alg = from_dga(dga)
        e = AInfMorphism.identity(alg)
        two = e.components[1]
        scale = {k: {p: 1 * c for p, c in col.items()} for k, col in two.items()}
        f = AInfMorphism(alg, alg, {1: scale})
        lhs = compose_morphisms(compose_morphisms(f, f), f)
        rhs = compose_morphisms(f, compose_morphisms(f, f))
        assert lhs.components == rhs.components


def test_compose_preserves_morphism_equation():
    # two strict maps compose to the strict composite
    s2 = fixture_algebra("s2")
    q = unit_algebra(s2.base)
    table = {("1",): {("1", "1"): ONE}}
    f = AInfMorphism(s2, q, {1: table})
    g = AInfMorphism.identity(q)
    gf = compose_morphisms(g, f)
    assert check_morphism(gf, 3).ok
    assert gf.components == f.components


def test_random_dgas_validate_and_embed():
    rng = random.Random(101)
    for _ in range(25):
        dga = random_dga(rng)
        alg = from_dga(dga)
        assert check_stasheff(alg, 4).ok
        assert check_unital(alg).ok


def test_to_rational_base_roundtrip_on_nontrivial_base():
    # the S^2 cohomology as base, with the base itself as the algebra
    base = sphere_cohomology(2)
    alg = unit_algebra(base)
    assert check_stasheff(alg, 3).ok
    flat = to_rational_algebra(alg)
    assert check_stasheff(flat, 3).ok
    assert check_unital(flat).ok
    assert flat.gens.dim == 2


def test_to_rational_algebra_keeps_the_base_differential():
    # over sphere3_with_differential (d y = x) the unit algebra has no
    # mu_1 table; its one differential entry comes from the base
    alg = unit_algebra(sphere3_with_differential())
    assert 1 not in alg.mu and len(alg.module.d.entries) == 1
    flat = to_rational_algebra(alg)
    want = {("1", pair): {("1", q): c for q, c in col.items()}
            for pair, col in alg.module.d.entries.items()}
    assert flat.module.d.entries == want == {("1", ("y", "1")): {("1", ("x", "1")): 1}}
    assert check_stasheff(flat, 3).ok


def test_the_flat_letter_rule_keys_on_the_complex_algebra():
    # over R = H*(S^3) != Q, HH of the algebra itself (relative over R)
    # has bare letters and HH of its flattening has the pairs; over Q the
    # algebra is its own flattening and its letters are bare
    base = sphere_cohomology(3)
    alg = unit_algebra(base)
    flat = flatten(alg)
    assert flat.base.is_rational and flat.gens.labels() == [("1", "1"), ("x", "1")]
    assert letter_to_pair(alg, base, "1") == ("1", "1") == pair_to_letter(flat, base, ("1", "1"))
    assert letter_to_pair(flat, base, ("x", "1")) == ("x", "1")
    assert pair_to_letter(alg, base, ("1", "1")) == "1"
    with pytest.raises(ValueError, match="not the unit"):
        pair_to_letter(alg, base, ("x", "1"))
    over_q = fixture_algebra("s2")
    assert flatten(over_q) is over_q
    assert letter_to_pair(over_q, over_q.base, "x") == ("1", "x")
    assert pair_to_letter(over_q, over_q.base, ("1", "x")) == "x"


def test_unshifted_maps_are_a_relabeling():
    alg = fixture_algebra("cp2")
    m = alg.unshifted_maps()
    assert set(m) == {2}
    assert set(m[2]) == set(alg.mu[2])
