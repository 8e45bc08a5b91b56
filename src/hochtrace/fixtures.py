"""Bundled fixture algebras and random dga generators for tests and demos."""
from __future__ import annotations

import random

from .ainf import AInfAlgebra, from_dga
from .cdga import BaseCDGA, KAlgebra, cdga_as_kalgebra
from .grdlin import GradedMap, GradedSpace, ONE


def _cdga(basis, products, diff=None):
    """Build a BaseCDGA from basis [(label, deg)] and a product dict
    {(a, b): {c: coeff}}; products are completed by unit and graded
    commutativity, unspecified products are zero."""
    space = GradedSpace(basis)
    mult = {}
    labels = space.labels()
    for a in labels:
        mult[("1", a)] = {a: ONE}
        if a != "1":
            mult[(a, "1")] = {a: ONE}
    for (a, b), col in products.items():
        mult[(a, b)] = col
        if (b, a) not in products and a != b:
            sign = -1 if (space.degree[a] * space.degree[b]) % 2 else 1
            mult[(b, a)] = {c: x * sign for c, x in col.items()}
    d = GradedMap(space, space, 1, diff or {})
    return BaseCDGA(space, d, mult, "1")


def sphere_cohomology(n: int) -> BaseCDGA:
    """H^*(S^n; Q): generators 1 and x in degree n with x^2 = 0."""
    products = {} if n % 2 else {("x", "x"): {}}
    return _cdga([("1", 0), ("x", n)], products)


def cp2_cohomology() -> BaseCDGA:
    """H^*(CP^2; Q) = Q[x]/(x^3), |x| = 2."""
    return _cdga(
        [("1", 0), ("x", 2), ("x2", 4)],
        {("x", "x"): {"x2": 1}, ("x", "x2"): {}, ("x2", "x2"): {}},
    )


def dual_numbers() -> BaseCDGA:
    """Q[x]/(x^2) with x in degree 0 (even): the dual numbers."""
    return _cdga([("1", 0), ("x", 0)], {("x", "x"): {}})


def exterior_odd(degree=1) -> BaseCDGA:
    """Exterior algebra on one odd generator."""
    return _cdga([("1", 0), ("x", degree)], {("x", "x"): {}})


def sphere3_with_differential() -> BaseCDGA:
    """Q[x]/(x^2) (x) Lambda(y) with |x| = 2, |y| = 1 and dy = x: a base
    cdga with d != 0 whose cohomology is H^*(S^3), spanned by 1 and xy."""
    return _cdga([("1", 0), ("x", 2), ("y", 1), ("xy", 3)],
                 {("x", "y"): {"xy": 1}}, diff={"y": {"x": ONE}})


def fixture_cdga(name: str) -> BaseCDGA:
    table = {
        "s2": lambda: sphere_cohomology(2),
        "s3": lambda: sphere_cohomology(3),
        "s4": lambda: sphere_cohomology(4),
        "cp2": cp2_cohomology,
        "dual": dual_numbers,
    }
    return table[name]()


def fixture_algebra(name: str) -> AInfAlgebra:
    """The named cdga fixture as a C-infinity algebra over Q."""
    return from_dga(cdga_as_kalgebra(fixture_cdga(name)), n_max=4)


def mu3_algebra(n_max=5) -> AInfAlgebra:
    """A genuine A-infinity fixture with mu_3 != 0.

    Shifted generators a (degree 1) and c (degree 4), mu_3(a,a,a) = c,
    all other non-unit operations zero; with the strict unit adjoined the
    Stasheff relations hold because every composite hits a zero slot.
    Not C-infinity: the (1,2)-shuffle sum on (a,a,a) equals c.
    """
    base = BaseCDGA.rationals()
    gens = GradedSpace([("1", -1), ("a", 1), ("c", 4)])
    mu2 = {}
    for v, d in (("1", -1), ("a", 1), ("c", 4)):
        mu2[("1", v)] = {("1", v): ONE}
        if v != "1":
            unshifted = d + 1
            mu2[(v, "1")] = {("1", v): -ONE if unshifted % 2 else ONE}
        else:
            mu2[("1", "1")] = {("1", "1"): ONE}
    mu3 = {("a", "a", "a"): {("1", "c"): ONE}}
    return AInfAlgebra(base, gens, {2: mu2, 3: mu3}, n_max, unit="1")


def broken_associativity_algebra() -> AInfAlgebra:
    """mu_2 deliberately non-associative: Stasheff fails at n = 3."""
    base = BaseCDGA.rationals()
    gens = GradedSpace([("u", -1), ("v", -1), ("w", -1)])
    mu2 = {
        ("u", "u"): {("1", "v"): ONE},
        ("v", "u"): {("1", "w"): ONE},
        # missing/incompatible ("u", "v") makes (uu)u != u(uu)
    }
    return AInfAlgebra(base, gens, {2: mu2}, 3)


def noncommutative_dga() -> KAlgebra:
    """The path algebra of the quiver a -> b: unital, associative, not
    graded-commutative (e1 f = f, f e1 = 0)."""
    base = BaseCDGA.rationals()
    gens = GradedSpace([("1", 0), ("e1", 0), ("f", 0)])
    # basis: 1 = e1 + e2 is represented directly; e2 := 1 - e1
    u = lambda v: {("1", v): ONE}
    mult = {
        ("1", "1"): u("1"),
        ("1", "e1"): u("e1"), ("e1", "1"): u("e1"),
        ("1", "f"): u("f"), ("f", "1"): u("f"),
        ("e1", "e1"): u("e1"),
        ("e1", "f"): u("f"),
        ("f", "e1"): {},
        ("f", "f"): {},
    }
    return KAlgebra(base, gens, mult, "1")


def odd_coefficient_dga() -> KAlgebra:
    """A dga over Lambda(x), |x| = 1, whose one non-unit product e f = x g
    has an odd base coefficient: generators 1, e, f (degree 0) and g
    (degree -1).  Assembling a complex from it moves x back past a prefix,
    so it discriminates the coefficient-migration sign."""
    base = exterior_odd(1)
    gens = GradedSpace([("1", 0), ("e", 0), ("f", 0), ("g", -1)])
    mult = {}
    for v in gens.labels():
        mult[("1", v)] = mult[(v, "1")] = {("1", v): ONE}
    mult[("e", "f")] = {("x", "g"): ONE}
    return KAlgebra(base, gens, mult, "1")


def twisted_odd_coefficient_dga() -> KAlgebra:
    """odd_coefficient_dga with d(g) = x g: mu_1 has an odd coefficient."""
    dga = odd_coefficient_dga()
    return KAlgebra(dga.base, dga.gens, dga.mult, "1", d_gen={"g": {("x", "g"): ONE}})


def upper_triangular_dga() -> KAlgebra:
    """2x2 upper triangular matrices over Q, degree 0, zero differential."""
    base = BaseCDGA.rationals()
    gens = GradedSpace([("1", 0), ("e11", 0), ("e12", 0)])
    u = lambda v: {("1", v): ONE}
    mult = {
        ("1", "1"): u("1"),
        ("1", "e11"): u("e11"), ("e11", "1"): u("e11"),
        ("1", "e12"): u("e12"), ("e12", "1"): u("e12"),
        ("e11", "e11"): u("e11"),
        ("e11", "e12"): u("e12"),
        ("e12", "e11"): {},
        ("e12", "e12"): {},
    }
    return KAlgebra(base, gens, mult, "1")


# ---------------------------------------------------------------------------
# random dgas (associative + Leibniz by construction, from validated families)


def random_dga(rng: random.Random) -> KAlgebra:
    """A random dga over Q of total dimension <= 4, drawn from validated
    parametrized families; every output passes the KAlgebra validators."""
    builders = [
        _rand_truncated_poly,
        _rand_exterior,
        _rand_dual_with_d,
        _rand_quiver,
        _rand_two_exterior,
        _rand_sphere_like,
    ]
    return rng.choice(builders)(rng)


def _kalg(basis, products, d_gen=None):
    base = BaseCDGA.rationals()
    gens = GradedSpace(basis)
    mult = {}
    for a, _ in basis:
        mult[("1", a)] = {("1", a): ONE}
        if a != "1":
            mult[(a, "1")] = {("1", a): ONE}
    for pair, col in products.items():
        mult[pair] = {("1", c): x for c, x in col.items()}
    dg = {v: {("1", w): x for w, x in col.items()}
          for v, col in (d_gen or {}).items()}
    return KAlgebra(base, gens, mult, "1", dg)


def _rand_truncated_poly(rng):
    # Q[x]/(x^k), |x| even, k in {2, 3, 4}
    deg = rng.choice([0, 2, 4])
    k = rng.choice([2, 3]) if deg else rng.choice([2, 3, 4])
    labels = [("1", 0)] + [(f"x{i}", i * deg) for i in range(1, k)]
    products = {}
    for i in range(1, k):
        for j in range(1, k):
            products[(f"x{i}", f"x{j}")] = {f"x{i+j}": 1} if i + j < k else {}
    return _kalg(labels, products)


def _rand_exterior(rng):
    # Lambda(x), |x| odd; optionally d(x) = 0
    deg = rng.choice([1, 3, 5])
    return _kalg([("1", 0), ("x", deg)], {("x", "x"): {}})


def _rand_dual_with_d(rng):
    # Q<x, y>/(x^2, xy, yx, y^2) with |y| = |x|+1 and d(x) = c y
    deg = rng.choice([0, 1, 2])
    c = rng.choice([0, 1, 2, -1])
    products = {(a, b): {} for a in ("x", "y") for b in ("x", "y")}
    return _kalg([("1", 0), ("x", deg), ("y", deg + 1)], products,
                 {"x": {"y": c}} if c else None)


def _rand_quiver(rng):
    if rng.random() < 0.5:
        return noncommutative_dga()
    return upper_triangular_dga()


def _rand_two_exterior(rng):
    # Lambda(x, y) truncated: basis 1, x, y, xy with |x|, |y| odd
    dx = rng.choice([1, 3])
    dy = rng.choice([1, 3])
    products = {
        ("x", "x"): {}, ("y", "y"): {},
        ("x", "y"): {"xy": 1}, ("y", "x"): {"xy": -1},
        ("x", "xy"): {}, ("xy", "x"): {}, ("y", "xy"): {}, ("xy", "y"): {},
        ("xy", "xy"): {},
    }
    return _kalg([("1", 0), ("x", dx), ("y", dy), ("xy", dx + dy)], products)


def _rand_sphere_like(rng):
    n = rng.choice([2, 3, 4, 5])
    return cdga_as_kalgebra(sphere_cohomology(n))

