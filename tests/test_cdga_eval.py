"""k-multilinear evaluation against the general coefficient-collection
formula.

Complex assembly only ever passes unit coefficients, which
``eval_k_multilinear`` answers by copying the table column.  The general
formula below is kept as the reference: it collects every coefficient in
the base with its Koszul sign, whatever the coefficient is, and is
compared with the library on every pair tuple of arity <= 3.
"""
import random
from fractions import Fraction
from itertools import product

import pytest

from hochtrace.ainf import unit_algebra
from hochtrace.cdga import collect_coefficients, eval_k_multilinear
from hochtrace.fixtures import cp2_cohomology, exterior_odd, sphere_cohomology
from hochtrace.grdlin import ONE, GradedSpace, vec_add
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
