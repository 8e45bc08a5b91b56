import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochtrace.grdlin import (
    Complex,
    GradedMap,
    GradedSpace,
    HomologyBasis,
    chain_map_witness,
    compose_perms,
    cyclic_rotations,
    dense_rank,
    enumerate_shuffles,
    homology_window,
    is_quasi_iso_window,
    kernel_basis,
    koszul_sign,
    permute,
    solve,
    sparse_rank,
    tensor_map,
    tensor_space,
)
from hochtrace.report import CertificateError


def test_d_squared_failure_names_its_witness():
    space = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    d = GradedMap(space, space, 1, {"a": {"b": 1}, "b": {"c": 3}})
    with pytest.raises(CertificateError) as caught:
        Complex(space, d)
    assert caught.value.check == "d*d != 0"
    assert caught.value.witness == ("a", {"c": 3})
    assert isinstance(caught.value, ValueError)


def test_d_squared_witness_keeps_the_accumulation_order():
    # d d v runs through u1, u2, u3: x2 cancels at u2 and comes back last
    # at u3, x1 is updated in place, x4 is new; w fails too, but later
    space = GradedSpace([("v", 0), ("w", 0), ("u1", 1), ("u2", 1), ("u3", 1),
                         ("x1", 2), ("x2", 2), ("x3", 2), ("x4", 2)])
    d = GradedMap(space, space, 1, {
        "v": {"u1": 1, "u2": 1, "u3": 1}, "w": {"u3": 1},
        "u1": {"x1": 1, "x2": 1, "x3": 2}, "u2": {"x2": -1, "x4": 3, "x1": 1},
        "u3": {"x2": 5}})
    with pytest.raises(CertificateError) as caught:
        Complex(space, d)
    v, ddv = caught.value.witness
    assert v == "v"
    assert list(ddv.items()) == [("x1", 2), ("x3", 2), ("x4", 3), ("x2", 5)]


def test_a_repeated_label_names_the_first_duplicate():
    with pytest.raises(ValueError, match="^duplicate basis label 'a'$"):
        GradedSpace([("b", 0), ("a", 1), ("c", 0), ("a", 2), ("b", 1)])
    space = GradedSpace([("b", 1), ("a", 0), ("c", 1)])
    assert space.degree == {"b": 1, "a": 0, "c": 1}
    assert space.by_degree == {1: ["b", "c"], 0: ["a"]}


def test_spaces_in_another_order_are_unequal():
    # maps pair their columns up by basis position, so a space holding the
    # same labels in another order is another space, and every operation
    # that would mix up its columns raises
    ab = GradedSpace([("a", 0), ("b", 1)])
    ba = GradedSpace([("b", 1), ("a", 0)])
    assert ab != ba and GradedSpace([("a", 0), ("b", 1)]) == ab
    assert hash(GradedSpace(ab.basis)) == hash(ab)
    d_ab = GradedMap(ab, ab, 1, {"a": {"b": 1}})
    d_ba = GradedMap(ba, ba, 1, {"a": {"b": 1}})
    assert d_ab != d_ba and d_ab.column("a") == d_ba.column("a") == {"b": 1}
    with pytest.raises(ValueError, match="composition mismatch"):
        d_ab.compose(d_ba)
    with pytest.raises(ValueError, match="sum mismatch"):
        d_ab + d_ba
    with pytest.raises(ValueError, match="endomap"):
        Complex(ab, d_ba)
    with pytest.raises(ValueError, match="do not share their spaces"):
        chain_map_witness(GradedMap.identity(ab), d_ba, d_ab)


def test_a_zero_coefficient_adds_nothing_and_raises_nothing():
    # a zero coefficient drops a label the image does not hold: no KeyError
    space = GradedSpace([("a", 0), ("b", 0), ("c", 0), ("x", 1), ("y", 1)])
    f = GradedMap(space, space, 1, {"a": {"x": 1, "y": 2}, "b": {"y": -2}, "c": {"y": 3}})
    assert f({"a": 0}) == {}
    assert list(f({"b": 0, "a": 1}).items()) == [("x", 1), ("y", 2)]
    # y cancels at b, and c's zero coefficient does not bring it back
    assert list(f({"a": 1, "b": 1, "c": 0, "x": 7}).items()) == [("x", 1)]
    assert f({"b": 1, "a": 0}) == {"y": -2}


def test_chain_map_failure_names_its_witness():
    # a(0) -> b(1) and c(1) -> e(2), each with d = 1; a degree-1 map of
    # complexes satisfies f d = -d f, so it must send b to -e
    source = GradedSpace([("a", 0), ("b", 1)])
    target = GradedSpace([("c", 1), ("e", 2)])
    d_source = GradedMap(source, source, 1, {"a": {"b": 1}})
    d_target = GradedMap(target, target, 1, {"c": {"e": 1}})
    odd = GradedMap(source, target, 1, {"a": {"c": 1}, "b": {"e": -1}})
    assert chain_map_witness(odd, d_source, d_target) is None
    unsigned = GradedMap(source, target, 1, {"a": {"c": 1}, "b": {"e": 1}})
    assert chain_map_witness(unsigned, d_source, d_target) == ("a", {"e": 2})
    with pytest.raises(ValueError):
        chain_map_witness(odd, d_target, d_source)
    # the degree-0 map a -> a is none: f d (a) = 0 but d f (a) = b
    cx = Complex(source, d_source)
    keep_a = GradedMap(source, source, 0, {"a": {"a": 1}})
    assert chain_map_witness(keep_a, d_source, d_source) == ("a", {"b": -1})
    with pytest.raises(CertificateError) as caught:
        is_quasi_iso_window(keep_a, cx, cx, 0, 1)
    assert caught.value.witness == ("a", {"b": -1})
    assert isinstance(caught.value, ValueError)


def test_koszul_sign_identity():
    assert koszul_sign((0, 1), [3, 5]) == 1


def test_koszul_sign_swap_odd():
    swap = (1, 0)
    assert koszul_sign(swap, [1, 1]) == -1
    assert koszul_sign(swap, [1, 2]) == 1
    assert koszul_sign(swap, [-1, 3]) == -1


def test_koszul_sign_cycle():
    # t_3 moves the last factor to the front; on degrees (1,2,1) the moved
    # factor (degree 1) passes degrees 1 and 2: sign (-1)^(1*1) * (-1)^(1*2) = -1
    t3 = (1, 2, 0)
    assert koszul_sign(t3, [1, 2, 1]) == -1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=7))
def test_cyclic_rotations_match_the_rotation_permutation(degrees):
    n = len(degrees)
    items = tuple(f"x{i}" for i in range(n))
    rotation = tuple((i + 1) % n for i in range(n))
    power = tuple(range(n))
    rotations = list(cyclic_rotations(items, degrees))
    assert [l for l, _, _ in rotations] == list(range(n))
    for l, rotated, parity in rotations:
        assert rotated == permute(power, items)
        assert (-1) ** parity == koszul_sign(power, degrees)
        power = compose_perms(rotation, power)


def test_koszul_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        sigma = tuple(rng.sample(range(n), n))
        tau = tuple(rng.sample(range(n), n))
        degrees = [rng.randint(-3, 4) for _ in range(n)]
        permuted = [0] * n
        for i, d in enumerate(degrees):
            permuted[tau[i]] = d
        lhs = koszul_sign(compose_perms(sigma, tau), degrees)
        rhs = koszul_sign(sigma, permuted) * koszul_sign(tau, degrees)
        assert lhs == rhs


def test_permutation_action():
    assert permute((2, 0, 1), ("a", "b", "c")) == ("b", "c", "a")


def _random_map(rng, source, target, degree):
    entries = {}
    for v in source.labels():
        col = {}
        for w in target.labels():
            if target.degree[w] == source.degree[v] + degree and rng.random() < 0.6:
                col[w] = Fraction(rng.randint(-3, 3))
        if col:
            entries[v] = col
    return GradedMap(source, target, degree, entries)


def test_tensor_map_identity():
    space = GradedSpace([("a", 0), ("b", 1)])
    ident = GradedMap.identity(space)
    assert tensor_map(ident, ident) == GradedMap.identity(tensor_space(space, space))


def test_tensor_map_koszul_rule():
    # f of degree 1 applied in the second slot past x of odd degree picks up -1
    space = GradedSpace([("x", 1), ("y", 2)])
    f = GradedMap(space, space, 1, {"x": {"y": Fraction(1)}})
    ident = GradedMap.identity(space)
    idf = tensor_map(ident, f)
    assert idf.entries[("x", "x")] == {("x", "y"): Fraction(-1)}
    assert idf.entries[("y", "x")] == {("y", "y"): Fraction(1)}


def test_tensor_compose_interchange():
    # (f (x) g) o (h (x) k) = (-1)^{|g||h|} (f o h) (x) (g o k)
    rng = random.Random(3)
    spaces = [
        GradedSpace([(f"v{i}{j}", d) for j, d in enumerate(degs)])
        for i, degs in enumerate([[0, 1], [1, 2], [0, 2], [1, 3], [-1, 0], [0, 1]])
    ]
    a, b, c, a2, b2, c2 = spaces
    for fd, gd, hd, kd in [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1), (2, 1, 1, 2)]:
        f = _random_map(rng, b, c, fd)
        g = _random_map(rng, b2, c2, gd)
        h = _random_map(rng, a, b, hd)
        k = _random_map(rng, a2, b2, kd)
        lhs = tensor_map(f, g).compose(tensor_map(h, k))
        rhs = tensor_map(f.compose(h), g.compose(k)).scale((-1) ** (gd * hd))
        assert lhs == rhs


def test_enumerate_shuffles_counts():
    assert len(enumerate_shuffles(1, 1)) == 2
    assert len(enumerate_shuffles(2, 1)) == 3
    assert len(enumerate_shuffles(2, 2)) == 6
    for p in enumerate_shuffles(2, 2):
        assert p[0] < p[1] and p[2] < p[3]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))))
def test_enumerate_shuffles_matches_brute_force(case):
    n, p = case
    brute = [perm for perm in itertools.permutations(range(n))
             if list(perm[:p]) == sorted(perm[:p]) and list(perm[p:]) == sorted(perm[p:])]
    assert enumerate_shuffles(p, n - p) == brute


def _perms_and_items(n):
    return st.tuples(st.permutations(range(n)), st.permutations(range(n)),
                     st.lists(st.integers(min_value=-3, max_value=4), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(_perms_and_items))
def test_compose_perms_acts_as_tau_then_sigma(case):
    sigma, tau, items = (tuple(x) for x in case)
    assert permute(compose_perms(sigma, tau), items) == permute(sigma, permute(tau, items))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(_perms_and_items))
def test_koszul_sign_counts_inverted_odd_pairs(case):
    perm, _, degrees = case
    inverted = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                   if perm[i] > perm[j] and degrees[i] % 2 and degrees[j] % 2)
    assert koszul_sign(tuple(perm), degrees) == (-1) ** inverted


def test_complex_rejects_bad_differential():
    space = GradedSpace([("a", 0), ("b", 1), ("c", 2)])
    d = GradedMap(space, space, 1, {"a": {"b": Fraction(1)}, "b": {"c": Fraction(1)}})
    with pytest.raises(ValueError):
        Complex(space, d)


def test_homology_point():
    space = GradedSpace([("a", 0)])
    cx = Complex(space, GradedMap.zero(space, space, 1))
    assert homology_window(cx, -1, 1) == {-1: 0, 0: 1, 1: 0}


def test_homology_acyclic():
    space = GradedSpace([("a", 0), ("b", 1)])
    d = GradedMap(space, space, 1, {"a": {"b": Fraction(1)}})
    cx = Complex(space, d)
    assert homology_window(cx, 0, 1) == {0: 0, 1: 0}


def _random_complex(rng, total_dim):
    degrees = [rng.randint(-2, 3) for _ in range(total_dim)]
    space = GradedSpace([(f"e{i}", d) for i, d in enumerate(degrees)])
    # random strictly upper-triangular-ish degree +1 map, then square-zero fix:
    # build d by choosing a random subset of a filtration to make d*d = 0.
    # Simplest exact scheme: pick a random map u of degree 1 and use d = [n, u]
    # trick is overkill; instead pick random "matching" differentials.
    labels = space.labels()
    by_degree = space.by_degree
    entries = {}
    used_targets = set()
    used_sources = set()
    for v in labels:
        if v in used_sources or rng.random() < 0.35:
            continue
        cands = [w for w in by_degree.get(space.degree[v] + 1, [])
                 if w not in used_targets and w not in used_sources and w != v]
        if not cands:
            continue
        w = rng.choice(cands)
        entries[v] = {w: Fraction(rng.randint(1, 4))}
        used_targets.add(w)
        used_sources.add(v)
        used_sources.add(w)
    d = GradedMap(space, space, 1, entries)
    return Complex(space, d)


def test_homology_against_dense_oracle():
    rng = random.Random(11)
    for _ in range(100):
        cx = _random_complex(rng, rng.randint(1, 40))
        t_min, t_max = -2, 4
        dims = homology_window(cx, t_min, t_max)
        for t in range(t_min, t_max + 1):
            src = cx.space.by_degree.get(t, [])
            tgt = cx.space.by_degree.get(t + 1, [])
            prev = cx.space.by_degree.get(t - 1, [])
            dense_d = [[cx.d.column(v).get(w, 0) for w in tgt] for v in src]
            dense_prev = [[cx.d.column(v).get(w, 0) for w in src] for v in prev]
            expected = len(src) - dense_rank(dense_d) - dense_rank(dense_prev)
            assert dims[t] == expected


def test_homology_basis_independent():
    rng = random.Random(23)
    for _ in range(20):
        cx = _random_complex(rng, 16)
        # random invertible degree-0 change of basis: triangular with units
        labels = cx.space.labels()
        change = {v: {v: Fraction(rng.choice([1, -1, 2]))} for v in labels}
        for v in labels:
            for w in labels:
                if w != v and cx.space.degree[w] == cx.space.degree[v] and rng.random() < 0.3:
                    change[v][w] = Fraction(rng.randint(-2, 2))
        g = GradedMap(cx.space, cx.space, 0, change)
        # invert by solving columns; skip if accidentally singular
        rows = [g.column(v) for v in labels]
        if sparse_rank(rows) != len(labels):
            continue
        conjugated = {}
        for v in labels:
            sol = solve(rows, cx.d(g.column(v)))
            conjugated[v] = {labels[i]: c for i, c in sol.items()}
        d2 = GradedMap(cx.space, cx.space, 1, conjugated)
        cx2 = Complex(cx.space, d2)
        assert homology_window(cx, -2, 4) == homology_window(cx2, -2, 4)


def test_quasi_iso_identity_and_zero():
    cx = _random_complex(random.Random(5), 12)
    ident = GradedMap.identity(cx.space)
    assert is_quasi_iso_window(ident, cx, cx, -2, 3)
    point = GradedSpace([("pt", 0)])
    pt_cx = Complex(point, GradedMap.zero(point, point, 1))
    zero = GradedMap.zero(cx.space, pt_cx.space, 0)
    if any(homology_window(cx, 0, 0).values()):
        assert not is_quasi_iso_window(zero, cx, pt_cx, 0, 0)


def test_kernel_and_solve():
    rows = [{"x": Fraction(1), "y": Fraction(2)},
            {"x": Fraction(2), "y": Fraction(4)},
            {"y": Fraction(1)}]
    kernel = kernel_basis(rows)
    assert len(kernel) == 1
    combo = kernel[0]
    acc = {}
    for i, c in combo.items():
        for col, val in rows[i].items():
            acc[col] = acc.get(col, Fraction(0)) + c * val
    assert all(v == 0 for v in acc.values())
    sol = solve(rows, {"x": Fraction(1), "y": Fraction(3)})
    assert sol is not None
    acc = {}
    for i, c in sol.items():
        for col, val in rows[i].items():
            acc[col] = acc.get(col, Fraction(0)) + c * val
    assert acc == {"x": Fraction(1), "y": Fraction(3)}
    assert solve([{"x": Fraction(1)}], {"y": Fraction(1)}) is None


def test_homology_basis_coords():
    space = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    d = GradedMap(space, space, 1, {"a": {"c": Fraction(1)}})
    cx = Complex(space, d)
    h0 = HomologyBasis(cx, 0)
    assert h0.dim == 1
    coords = h0.coords({"b": Fraction(3)})
    assert list(coords.values()) == [Fraction(3)]
