"""k-multilinear evaluation against the general coefficient-collection
formula.

Complex assembly only ever passes unit coefficients, which
``eval_k_multilinear`` answers by copying the table column.  The general
formula below is kept as the reference: it collects every coefficient in
the base with its Koszul sign, whatever the coefficient is, and is
compared with the library on every pair tuple of arity <= 3.  Then
``KAlgebra``'s associativity check, which reads both sides off its
product table, is pinned on products with an odd coefficient, and
``BaseCDGA``'s validator on one bad table per axiom.
"""
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from hochtrace.ainf import unit_algebra
from hochtrace.cdga import BaseCDGA, KAlgebra, collect_coefficients, eval_k_multilinear
from hochtrace.fixtures import cp2_cohomology, exterior_odd, sphere_cohomology
from hochtrace.grdlin import ONE, GradedMap, GradedSpace, vec_add
from hochtrace.hoch import hh_of_algebra

BASES = {
    "exterior_odd(1)": lambda: exterior_odd(1),            # an odd base element
    "sphere_cohomology(3)": lambda: sphere_cohomology(3),
    "cp2_cohomology()": cp2_cohomology,                    # x * x = x2
}
GENS = GradedSpace([("p", 0), ("q", 1)])


def reference_collect(base, gen_degrees, pairs):
    """(b_1 v_1)(x)...(x)(b_n v_n) = +- (b_1...b_n)(v_1(x)...(x)v_n),
    multiplying every coefficient in, the unit included."""
    exponent = 0
    left = 0
    bvec = {base.unit: ONE}
    vs = []
    for (b, v), dv in zip(pairs, gen_degrees):
        if base.degree(b) % 2:
            exponent += left
        new = {}
        for bb, c in bvec.items():
            for b2, x in base.mul_basis(bb, b).items():
                vec_add(new, {b2: c * x})
        bvec = new
        if not bvec:
            return ONE, None, ()
        vs.append(v)
        left += dv
    sign = -ONE if exponent % 2 else ONE
    return sign, bvec, tuple(vs)


def reference_eval(base, table, map_degree, pairs, gen_degrees):
    sign, bvec, vs = reference_collect(base, gen_degrees, pairs)
    if bvec is None:
        return {}
    value = table.get(vs)
    if not value:
        return {}
    out = {}
    for b, cb in bvec.items():
        term_sign = sign * cb
        if map_degree % 2 and base.degree(b) % 2:
            term_sign = -term_sign
        for (c, w), x in value.items():
            for bb, y in base.mul_basis(b, c).items():
                vec_add(out, {(bb, w): term_sign * x * y})
    return out


def _table(base, seed):
    """A table on generator tuples of arity <= 3 with coefficients in
    -2..2, so some columns hold explicit zeros; a few tuples are absent."""
    rng = random.Random(seed)
    targets = [(b, w) for b in base.space.labels() for w in GENS.labels()]
    table = {}
    for n in range(0, 4):
        for vs in product(GENS.labels(), repeat=n):
            if rng.random() < 0.2:
                continue
            table[vs] = {t: Fraction(rng.randint(-2, 2))
                         for t in rng.sample(targets, rng.randint(1, 3))}
    table[("q",)] = {(base.unit, "p"): Fraction(0), (base.unit, "q"): ONE}
    return table


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("map_degree", [0, 1])
def test_eval_k_multilinear_matches_general_formula(name, map_degree):
    base = BASES[name]()
    table = _table(base, seed=len(name) + map_degree)
    labels = [(b, v) for b in base.space.labels() for v in GENS.labels()]
    general = 0
    for n in range(0, 4):
        for pairs in product(labels, repeat=n):
            degs = [GENS.degree[v] for _, v in pairs]
            got_collect = collect_coefficients(base, degs, pairs)
            assert got_collect == reference_collect(base, degs, pairs), pairs
            want = reference_eval(base, table, map_degree, pairs, degs)
            got = eval_k_multilinear(base, table, map_degree, pairs, degs)
            assert got == want, pairs
            assert all(got.values()), pairs
            if any(b != base.unit for b, _ in pairs):
                general += 1
            column = table.get(got_collect[2])
            if got:
                # a fresh dict: mutating it leaves the table as it was
                assert got is not column
                before = dict(column)
                got.clear()
                assert table[got_collect[2]] == before
    assert general
    assert any(not x for col in table.values() for x in col.values())


def test_unit_shortcut_drops_explicit_zeros():
    base = cp2_cohomology()
    table = {("p", "q"): {(base.unit, "p"): Fraction(0), ("x", "q"): Fraction(3)}}
    pairs = ((base.unit, "p"), (base.unit, "q"))
    got = eval_k_multilinear(base, table, 1, pairs, [0, 1])
    assert got == {("x", "q"): Fraction(3)}
    assert got == reference_eval(base, table, 1, pairs, [0, 1])


# hh_of_algebra(unit_algebra(k), 3).d.entries, computed with the general
# formula throughout; the columns of non-unit b go through the base product
F = Fraction
PINNED_HH_UNIT = {
    "exterior_odd(1)": {
        ("1", "1", ("1", "1")): {("1", "1", ("1",)): F(1)},
        ("x", "1", ("1", "1")): {("x", "1", ("1",)): F(-1)},
    },
    "sphere_cohomology(3)": {
        ("1", "1", ("1", "1")): {("1", "1", ("1",)): F(1)},
        ("x", "1", ("1", "1")): {("x", "1", ("1",)): F(-1)},
    },
    "cp2_cohomology()": {
        ("1", "1", ("1", "1")): {("1", "1", ("1",)): F(1)},
        ("x", "1", ("1", "1")): {("x", "1", ("1",)): F(1)},
        ("x2", "1", ("1", "1")): {("x2", "1", ("1",)): F(1)},
    },
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_hh_of_unit_algebra_pinned(name):
    hh = hh_of_algebra(unit_algebra(BASES[name]()), 3)
    assert hh.d.entries == PINNED_HH_UNIT[name]


def _matrix_units_over_odd_base(flip=None):
    """2x2 graded matrix units over Lambda(x), |E12| = 1, |E21| = -1, in the
    basis 1, p = E11 + x E21, q = E21, r = E12: products like p r = r + x 1
    - x p carry the odd coefficient x, and associativity holds only with
    the sign of x (b w) = (-1)^{|b||x|} b (x w): without it the check
    fails at (q, r, p).  ``flip`` negates one product."""
    gens = GradedSpace([("1", 0), ("p", 0), ("q", -1), ("r", 1)])
    mult = {("p", "p"): {("1", "p"): 1}, ("p", "q"): {}, ("q", "p"): {("1", "q"): 1},
            ("p", "r"): {("1", "r"): 1, ("x", "1"): 1, ("x", "p"): -1},
            ("r", "p"): {("x", "p"): -1}, ("q", "q"): {}, ("r", "r"): {},
            ("q", "r"): {("1", "1"): 1, ("1", "p"): -1, ("x", "q"): 1},
            ("r", "q"): {("1", "p"): 1, ("x", "q"): -1}}
    for v in gens.labels():
        mult[("1", v)] = mult[(v, "1")] = {("1", v): 1}
    if flip:
        mult[flip] = {key: -c for key, c in mult[flip].items()}
    return KAlgebra(exterior_odd(1), gens, mult, "1")


def test_associativity_reads_the_odd_coefficient_sign():
    assert _matrix_units_over_odd_base().gens.dim == 4
    # the first failing triple, as the check through KAlgebra.mul found it
    with pytest.raises(ValueError, match=re.escape("not associative at ('p', 'p', 'r')")):
        _matrix_units_over_odd_base(flip=("p", "r"))


def _base_cdga(basis, products, diff=None, unit_acts=True):
    """A BaseCDGA on ``basis`` with exactly the products given, plus
    1 * a = a * 1 = a for every a when ``unit_acts``."""
    space = GradedSpace(basis)
    mult = dict(products)
    if unit_acts:
        for a in space.labels():
            mult[("1", a)] = mult[(a, "1")] = {a: 1}
    return BaseCDGA(space, GradedMap(space, space, 1, diff or {}), mult, "1")


# One table per axiom, each breaking that axiom alone, with the message of
# the first failure the validator reports.
BAD_BASE_TABLES = {
    # 1 * x = x * 1 = 0: the unit fails on both sides, commutativity holds
    "unit": (lambda: _base_cdga([("1", 0), ("x", 0)], {("1", "1"): {"1": 1}},
                                unit_acts=False),
             "unit fails on the left of 'x'"),
    # x * x = y with |x| odd: graded commutativity asks x * x = -x * x
    "graded commutativity": (lambda: _base_cdga([("1", 0), ("x", 1), ("y", 2)],
                                                {("x", "x"): {"y": 1}}),
                             "not graded-commutative at ('x', 'x')"),
    # x idempotent with dx = y: d(x x) = y but dx x + x dx = 0
    "Leibniz": (lambda: _base_cdga([("1", 0), ("x", 0), ("y", 1)],
                                   {("x", "x"): {"x": 1}}, diff={"x": {"y": 1}}),
                "Leibniz fails at ('x', 'x')"),
    # x x = y, x y = y x = x, y y = 0: (x x) y = 0 but x (x y) = y
    "associativity": (lambda: _base_cdga([("1", 0), ("x", 0), ("y", 0)],
                                         {("x", "x"): {"y": 1}, ("x", "y"): {"x": 1},
                                          ("y", "x"): {"x": 1}}),
                      "not associative at ('x', 'x', 'y')"),
    # d(1) = x: Leibniz fails at (1, 1) alone, named by the rule d(1) = 0
    "d(1) = 0": (lambda: _base_cdga([("1", 0), ("x", 1)], {}, diff={"1": {"x": 1}}),
                 "d(1) != 0"),
    # a one-dimensional base is checked alone: 1 * 1 = 2 breaks its one rule
    "one-dimensional unit": (lambda: _base_cdga([("1", 0)], {("1", "1"): {"1": 2}},
                                                unit_acts=False),
                             "one-dimensional base without '1' * '1' = '1'"),
}


@pytest.mark.parametrize("axiom", list(BAD_BASE_TABLES))
def test_base_cdga_rejects_a_table_breaking_one_axiom(axiom):
    build, message = BAD_BASE_TABLES[axiom]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
