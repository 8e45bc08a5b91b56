"""Exact elimination (sparse_rank, kernel_basis, solve, HomologyBasis):
property tests on random rational matrices with non-unit pivots, and
pinned exact outputs that any change to elimination must reproduce.

``LabelEliminator`` is the elimination loop as it was before rows were
keyed by repr strings: rows keyed by label, the pivot picked by
``min(row, key=repr)``, with row combinations tracked.  It is kept as the
reference: the library's least-repr ``_Eliminator`` must match its pivot
rows bit for bit, and the kernel pass behind ``kernel_basis``, ``solve``
and ``sparse_rank`` its kernel combos, solutions and rank in value, with
every integral coefficient an int.  ``fresh_cleared_blocks`` runs the
cleared block elimination on fresh ``LabelEliminator``s, the reference
for ``Complex``'s block cache and ``HomologyBasis``."""
import hashlib
import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochtrace.ainf import from_dga
from hochtrace.fixtures import (
    fixture_algebra,
    mu3_algebra,
    odd_coefficient_dga,
    random_dga,
    sphere3_with_differential,
)
from hochtrace import bimod, grdlin
from hochtrace.grdlin import (
    Complex,
    GradedMap,
    GradedSpace,
    HomologyBasis,
    _Eliminator,
    dense_rank,
    homology_window,
    int_first,
    kernel_basis,
    repr_ranks,
    solve,
    sparse_rank,
    vec_add,
)
from hochtrace.hoch import hh_of_algebra
from hochtrace.report import CertificateError

# labels are nested tuples mixing str and int, like the library's own
atoms = st.one_of(st.sampled_from(["a", "z", "ab", ""]), st.integers(-3, 12))
labels = st.recursive(atoms, lambda inner: st.tuples(inner, inner), max_leaves=4)
# rationals with non-unit numerators and denominators reach the Fraction
# branch of the pivot normalization
nonzero = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def matrices(draw, max_rows=7):
    cols = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    # explicit zero entries must not become pivots
    entries = nonzero | st.just(Fraction(0))
    rows = draw(st.lists(st.dictionaries(st.sampled_from(cols), entries, max_size=len(cols)),
                         max_size=max_rows))
    return cols, rows


def combine(rows, coeffs):
    acc = {}
    for i, c in coeffs.items():
        for col, v in rows[i].items():
            acc[col] = acc.get(col, 0) + c * v
    return {col: v for col, v in acc.items() if v}


def assert_exact(vec):
    assert all(type(c) in (int, Fraction) for c in vec.values()), vec


def dense(cols, rows):
    return [[row.get(col, 0) for col in cols] for row in rows]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_sparse_rank_matches_dense_rank(matrix):
    cols, rows = matrix
    copies = [dict(r) for r in rows]
    assert sparse_rank(rows) == dense_rank(dense(cols, rows))
    assert rows == copies


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_vectors(matrix):
    cols, rows = matrix
    kernel = kernel_basis(rows)
    assert len(kernel) == len(rows) - dense_rank(dense(cols, rows))
    for vec in kernel:
        assert_exact(vec)
        assert combine(rows, vec) == {}
        # the row whose insertion found the vector has coefficient 1
        assert vec[max(vec)] == 1


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_exact_or_none(matrix, data):
    cols, rows = matrix
    if data.draw(st.booleans()) and rows:
        coeffs = data.draw(st.dictionaries(st.integers(0, len(rows) - 1), nonzero))
        rhs = combine(rows, coeffs)
    else:
        rhs = data.draw(st.dictionaries(st.sampled_from(cols), nonzero))
    in_span = dense_rank(dense(cols, rows + [rhs])) == dense_rank(dense(cols, rows))
    sol = solve(rows, rhs)
    if not in_span:
        assert sol is None
    else:
        assert sol is not None
        assert_exact(sol)
        assert combine(rows, sol) == rhs


def repr_keyed(elim, row):
    """A label-keyed row keyed by the eliminator's repr keys, zeros
    dropped and integral Fractions turned into int."""
    return {elim._key(label): c for label, c in int_first(row).items()}


def labelled(elim, row):
    """A repr-keyed row keyed by label again."""
    return {elim._labels[key]: c for key, c in row.items()}


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_pivots_are_normalized_in_repr_order(matrix):
    _cols, rows = matrix
    elim = _Eliminator()
    for row in rows:
        elim._insert(repr_keyed(elim, row))
    # the pivot dict is keyed by repr; read each pivot row back by label
    for key, row in elim.pivots.items():
        col, row = elim._labels[key], labelled(elim, row)
        assert row[col] == 1
        assert col == min(row, key=repr)


class LabelEliminator:
    """The label-keyed elimination loop: pivots keyed by label, the pivot
    of a row its least-repr label, rows and combos normalized to a
    leading 1 (int_first on entry, Fraction(1, p) for a pivot p != +-1,
    each integral quotient then an int)."""

    def __init__(self):
        self.pivots = {}
        self._keys = {}

    def lead(self, row):
        return min(row, key=self._keys.__getitem__)

    def reduce(self, row, combo=None):
        row = int_first(row)
        for label in row:
            if label not in self._keys:
                self._keys[label] = repr(label)
        if combo is not None:
            combo = int_first(combo)
        while row:
            col = self.lead(row)
            hit = self.pivots.get(col)
            if hit is None:
                break
            pivot_row, pivot_combo = hit
            factor = -row[col]
            vec_add(row, pivot_row, factor)
            if combo is not None and pivot_combo is not None:
                vec_add(combo, pivot_combo, factor)
        return row, combo

    def insert(self, row, combo=None):
        row, combo = self.reduce(row, combo)
        if row:
            col = self.lead(row)
            p = row[col]
            if p != 1:
                inv = -1 if p == -1 else Fraction(1, p)
                row = {k: c * inv for k, c in row.items()}
                if combo is not None:
                    combo = {k: c * inv for k, c in combo.items()}
                if p != -1:
                    row = int_first(row)
                    combo = None if combo is None else int_first(combo)
            self.pivots[col] = (row, combo)
        return row, combo


def exact(vec):
    """A dict as its ordered items with coefficient types: equal only
    when bit-identical."""
    return [(k, type(c), c) for k, c in vec.items()]


def keyed(vec):
    """A dict as {key: (coefficient type, coefficient)}: equal when the
    keys, coefficients and coefficient types are, in any key order."""
    return {k: (type(c), c) for k, c in vec.items()}


def assert_int_when_integral(vec):
    assert all(type(c) is int or c.denominator != 1 for c in vec.values()), vec


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_repr_keys_match_the_label_keyed_loop(matrix, data):
    cols, rows = matrix
    ref, elim, by_rank = LabelEliminator(), _Eliminator(), _Eliminator()
    # rows keyed by least-repr rank, as hoch.ClassicalHochschild writes them
    ranks, ordered = repr_ranks(cols, [repr(x) for x in cols])
    rank = dict(zip(cols, ranks))
    kernel = []
    for i, r in enumerate(rows):
        want = ref.insert(r, {i: 1})
        got = elim._insert(repr_keyed(elim, r))
        assert exact(labelled(elim, got)) == exact(want[0])
        got = by_rank._insert({rank[label]: c for label, c in int_first(r).items()})
        assert exact({ordered[k]: c for k, c in got.items()}) == exact(want[0])
        if not want[0]:
            kernel.append(want[1])
    # the same pivots, in insertion order, with the same normalized rows
    assert [elim._labels[key] for key in elim.pivots] == list(ref.pivots)
    assert [ordered[k] for k in by_rank.pivots] == list(ref.pivots)
    for key, row in elim.pivots.items():
        assert exact(labelled(elim, row)) == exact(ref.pivots[elim._labels[key]][0])
    for k, row in by_rank.pivots.items():
        assert exact({ordered[j]: c for j, c in row.items()}) == exact(ref.pivots[ordered[k]][0])
    # the kernel pass: the same rank, kernel combos and solution in value,
    # every integral coefficient an int, whatever its pivot order
    assert sparse_rank(rows) == len(ref.pivots)
    got = kernel_basis(rows)
    assert got == kernel
    for vec in got:
        assert_int_when_integral(vec)
    rhs = data.draw(st.dictionaries(st.sampled_from(cols), nonzero))
    residue, neg = ref.reduce(rhs, {})
    want = None if residue else {i: -c for i, c in neg.items()}
    got = solve(rows, rhs)
    assert got == want
    if got is not None:
        assert_int_when_integral(got)


class SameRepr:
    """Two instances are different labels with one repr."""

    def __repr__(self):
        return "label"


def test_labels_sharing_a_repr_raise():
    first, second = SameRepr(), SameRepr()
    elim = _Eliminator()
    elim._key(first)
    with pytest.raises(ValueError, match="share the repr"):
        elim._key(second)
    # so does a rank table that holds both, and only one of them ranks alone
    with pytest.raises(ValueError, match="share the repr"):
        labels = [("a", 1), first, ("b", 2), second]
        repr_ranks(labels, [repr(x) for x in labels])
    labels = [("b", 2), first, ("a", 1)]
    assert repr_ranks(labels, [repr(x) for x in labels]) == ([1, 2, 0], [("a", 1), ("b", 2), first])
    # equal labels built apart are one column
    elim = _Eliminator()
    elim._insert({elim._key(("x", (1, "y"))): 2})
    assert elim._insert({elim._key(("x", (1, "y"))): 2}) == {}
    # a block echelon whose targets share a repr raises
    space = GradedSpace([("s", 0), ("t", 0), (first, 1), (second, 1)])
    cx = Complex(space, GradedMap(space, space, 1, {"s": {first: 1}, "t": {second: 1}}))
    with pytest.raises(ValueError, match="share the repr"):
        homology_window(cx, 0, 1)


def test_the_kernel_pass_takes_labels_sharing_a_repr():
    # sparse_rank, kernel_basis and solve key labels by position, not repr
    first, second = SameRepr(), SameRepr()
    rows = [{first: 1}, {second: 2}, {first: 3, second: 4}]
    assert sparse_rank(rows) == 2
    assert kernel_basis(rows) == [{2: 1, 0: -3, 1: -2}]
    assert solve(rows, {first: 2, second: 2}) == {0: 2, 1: 1}
    assert solve(rows[:1], {second: 1}) is None


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_homology_coords_of_representatives(matrix):
    # the two-term complex C^0 -> C^1 whose differential has the rows as
    # its columns; H^0 is the kernel, H^1 the cokernel
    cols, rows = matrix
    space = GradedSpace([(("s", i), 0) for i in range(len(rows))]
                        + [(("t", col), 1) for col in cols])
    d = GradedMap(space, space, 1, {("s", i): {("t", col): c for col, c in row.items()}
                                    for i, row in enumerate(rows)})
    cx = Complex(space, d)
    rank = dense_rank(dense(cols, rows))
    for t, dim in ((0, len(rows) - rank), (1, len(cols) - rank)):
        hb = HomologyBasis(cx, t)
        assert hb.dim == dim
        for i, rep in enumerate(hb.representatives):
            assert_exact(rep)
            coords = hb.coords(rep)
            assert_exact(coords)
            assert coords == {i: 1}


# --- pinned outputs -------------------------------------------------------------


def digest(value):
    """Hash of nested lists and dicts of rationals; dict keys sorted by repr,
    coefficients written as numerator/denominator, so 1 and Fraction(1)
    hash the same."""
    h = hashlib.sha256()

    def walk(v):
        if isinstance(v, dict):
            h.update(b"{")
            for k in sorted(v, key=repr):
                h.update(repr(k).encode() + b":")
                walk(v[k])
            h.update(b"}")
        elif isinstance(v, list):
            h.update(b"[")
            for x in v:
                walk(x)
            h.update(b"]")
        else:
            h.update(f"{v.numerator}/{v.denominator};".encode())

    walk(value)
    return h.hexdigest()[:16]


# digest of [representatives, coords of every kernel_basis cycle] of
# hh_of_algebra(cp2, 5) in each degree; the representatives are the kernel
# combos of the cleared blocks (degrees 6, 8, 10 and 12 differ from the
# first uncleared cycles independent of the boundaries)
PINNED_CP2_H5 = {
    -5: "cbf34fdd8b1bb270", -4: "ce6acd417567d142", -3: "c0d95e637653cd77",
    -2: "54b83bcbf1f05f37", -1: "c1238fe190dd1499", 0: "54070c4fe89321d7",
    1: "084563518b3d757b", 2: "b31bee1541ac3a4b", 3: "ff7dcb16897e5682",
    4: "61549100cb9c96cc", 5: "d60022a7876c57b2", 6: "babfe103c3122fe5",
    7: "342356c830e89ff6", 8: "9bc8616308b13365", 9: "d84bf6e32877439f",
    10: "4940f9733acd8618", 11: "ea1629e643f8405d", 12: "20265f30e7df18f1",
    13: "47e4e23fed5115c7", 14: "c0fd27f0ea76ff73", 15: "77b29781cba2a395",
    16: "5ec00aafe64a9758", 17: "6b0ef9fcabad41a1", 19: "351e945cd8046a48",
}


def test_cp2_homology_bases_pinned():
    hh = hh_of_algebra(fixture_algebra("cp2"), 5)
    got = {}
    for t in hh.space.degrees():
        labels = hh.space.by_degree[t]
        hb = HomologyBasis(hh.complex, t)
        cycles = [{labels[i]: c for i, c in vec.items()}
                  for vec in kernel_basis([hh.d.column(v) for v in labels])]
        got[t] = digest([hb.representatives, [hb.coords(z) for z in cycles]])
    assert got == PINNED_CP2_H5


def seeded_rows():
    rng = random.Random(2604)
    cols = [(("c", i), i % 3) for i in range(6)]
    rows = []
    for _ in range(8):
        picked = rng.sample(cols, 3)
        rows.append({c: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                     for c in picked})
    return rows


F = Fraction


def test_seeded_kernel_and_solve_pinned():
    rows = seeded_rows()
    assert sparse_rank(rows) == 6
    assert kernel_basis(rows) == [
        {6: 1, 2: F(40, 63), 0: F(-391, 567), 1: F(-122, 189), 3: F(-380, 567),
         5: F(-29, 567)},
        {7: 1, 1: F(365, 189), 4: 3, 2: F(-79, 252), 0: F(-2971, 1134), 3: F(-781, 567),
         5: F(-1213, 567)},
    ]
    rhs = {(("c", 0), 0): F(1), (("c", 5), 2): F(-2, 3)}
    assert solve(rows, rhs) == {0: F(3, 7), 3: F(10, 21), 5: F(4, 7), 2: F(9, 7), 1: F(-6, 7)}
    assert solve(rows[:3], rhs) is None


# --- one elimination per degree block ----------------------------------------


def cache_complexes():
    rng = random.Random(2)   # the second draw has a differential
    draws = [from_dga(random_dga(rng)) for _ in range(2)]
    # sphere3_with_differential: H^2 = 0, though x = dy spans the kernel
    # of its degree-2 block
    return ([lambda: hh_of_algebra(fixture_algebra("cp2"), 5),
             lambda: hh_of_algebra(mu3_algebra(), 4),
             lambda: hh_of_algebra(from_dga(odd_coefficient_dga()), 3),
             sphere3_with_differential]
            + [lambda alg=alg: hh_of_algebra(alg, 3) for alg in draws])


def fresh_cleared_blocks(cx):
    """The cleared elimination on fresh label-keyed eliminators, block by
    block upward from the lowest degree: {t: (LabelEliminator of the
    uncleared columns of d^t, their kernel cycles)}.  A column is cleared
    when its label leads a pivot row of the block below."""
    blocks, cleared = {}, set()
    for t in range(cx.space.degrees()[0], cx.space.degrees()[-1] + 1):
        labels = cx.space.by_degree.get(t, [])
        elim, cycles = LabelEliminator(), []
        for i, v in enumerate(labels):
            if v not in cleared:
                row, combo = elim.insert(cx.d.column(v), {i: 1})
                if not row:
                    cycles.append({labels[j]: c for j, c in combo.items()})
        blocks[t] = elim, cycles
        cleared = set(elim.pivots)
    return blocks


def fresh_basis(cx, t, blocks):
    """HomologyBasis(cx, t) from ``fresh_cleared_blocks``: (representatives,
    coords of every kernel_basis cycle, those cycles)."""
    labels = cx.space.by_degree.get(t, [])
    cycles = [{labels[i]: c for i, c in vec.items()}
              for vec in kernel_basis([cx.d.column(v) for v in labels])]
    boundaries = LabelEliminator()
    below = blocks.get(t - 1)
    if below:
        boundaries.pivots = {col: (row, None) for col, (row, _) in below[0].pivots.items()}
        boundaries._keys = dict(below[0]._keys)
    reps = blocks[t][1]
    for k, z in enumerate(reps):
        row, _ = boundaries.insert(z, {k: 1})
        assert row
    coords = []
    for z in cycles:
        residue, neg = boundaries.reduce(z, {})
        assert not residue
        coords.append({k: -c for k, c in neg.items() if c})
    return [keyed(int_first(z)) for z in reps], [exact(c) for c in coords], cycles


def cached_basis(cx, t, cycles):
    hb = HomologyBasis(cx, t)
    return [keyed(z) for z in hb.representatives], [exact(hb.coords(z)) for z in cycles]


def rank_window(cx):
    """dim ker d^t - rank d^{t-1} over every degree, each rank from
    ``sparse_rank`` of all the columns of the block."""
    degrees = cx.space.degrees()
    lo, hi = degrees[0], degrees[-1]
    rank = {t: sparse_rank([cx.d.column(v) for v in cx.space.by_degree.get(t, ())])
            for t in range(lo - 1, hi + 1)}
    return {t: cx.space.dim_in_degree(t) - rank[t] - rank[t - 1] for t in range(lo, hi + 1)}


def test_the_block_cache_matches_fresh_elimination():
    # representatives compare keyed: the cache's kernel pass pivots on the
    # target latest in the basis, so a combo's keys come in another order
    # than the least-repr elimination's, though the combo is the same; it
    # holds every integral coefficient as int, so the reference goes
    # through int_first
    for build in cache_complexes():
        cx = build().complex
        degrees = cx.space.degrees()
        lo, hi = degrees[0], degrees[-1]
        window = rank_window(cx)
        blocks = fresh_cleared_blocks(cx)
        fresh = {t: fresh_basis(cx, t, blocks) for t in degrees}
        # bases from the top degree down, the window, then bases twice more
        for t in reversed(degrees):
            reps, coords, cycles = fresh[t]
            assert cached_basis(cx, t, cycles) == (reps, coords)
        assert homology_window(cx, lo, hi) == window
        for _ in range(2):
            for t in degrees:
                reps, coords, cycles = fresh[t]
                assert cached_basis(cx, t, cycles) == (reps, coords)
        # a new complex that computes the window first
        cx = build().complex
        assert homology_window(cx, lo, hi) == window
        for t in degrees:
            reps, coords, cycles = fresh[t]
            assert cached_basis(cx, t, cycles) == (reps, coords)
        assert_blocks_match_single_pass(cx, blocks)


def assert_blocks_match_single_pass(cx, blocks):
    """Every cached block against the single least-repr pass of
    ``fresh_cleared_blocks``: the same kernel combos, key by key with
    their coefficient types once the reference's integral Fractions are
    int, in the same order, and the same lead set of the boundaries, also
    as positions."""
    labels = cx.space.label_at
    for t, (elim, cycles) in blocks.items():
        boundaries, kernel, leads = cx._block(t)
        assert [keyed({labels[i]: c for i, c in combo.items()}) for combo in kernel] == [
            keyed(int_first(z)) for z in cycles]
        assert ({boundaries._labels[key] for key in boundaries.pivots}
                == {labels[j] for j in leads} == set(elim.pivots))


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_the_two_passes_match_a_single_least_repr_pass_on_random_dgas(rng, h):
    alg = from_dga(random_dga(rng))
    cx = hh_of_algebra(alg, h if alg.gens.dim < 4 else 2).complex
    assert_blocks_match_single_pass(cx, fresh_cleared_blocks(cx))


def count_line_runs(func, marker, run):
    """(number of lines of ``func`` that hold ``marker``, how often they
    ran during ``run()``), counted with a line tracer on func's frames;
    for a tuple of markers, a tuple of such pairs from the one run."""
    markers = marker if isinstance(marker, tuple) else (marker,)
    lines, first = inspect.getsourcelines(func)
    targets = {first + k: m for k, line in enumerate(lines)
               for m, text in enumerate(markers) if text in line}
    code, counts = func.__code__, [0] * len(markers)

    def local(frame, event, _arg):
        if event == "line" and frame.f_lineno in targets:
            counts[targets[frame.f_lineno]] += 1
        return local

    sys.settrace(lambda frame, _event, _arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(None)
    found = tuple((list(targets.values()).count(m), counts[m]) for m in range(len(markers)))
    return found if isinstance(marker, tuple) else found[0]


def test_the_kernel_pass_work_on_the_hh_homology_complex():
    # entry updates (row and combo) while the window of the normalized HH
    # of cp2 at h = 9 fills its blocks; one least-repr pass with combos
    # made 94,017, 80,122 of them on the 912 nonempty columns that reduce
    # to zero
    def window():
        cx = hh_of_algebra(fixture_algebra("cp2"), 9, normalized=True).complex
        degrees = cx.space.degrees()
        homology_window(cx, degrees[0], degrees[-1])

    assert count_line_runs(grdlin._kernel_pass, "+ factor * c", window) == (2, 25328)
    # the echelon pass: the independent columns, last first, no combos
    assert count_line_runs(grdlin._echelon, "+ factor * c", window) == (1, 2816)


def test_the_d_squared_work_on_the_hh_homology_complex():
    # entry updates of the d*d = 0 certificate while the complex is built:
    # one per entry of d(w) for each entry w of each column of d, made on
    # basis positions by the int image behind GradedMap.__call__
    cp2 = fixture_algebra("cp2")

    def build():
        hh_of_algebra(cp2, 9, normalized=True)

    assert count_line_runs(GradedMap._image, "+ c * x", build) == (1, 16724)


def test_solve_builds_no_combo_it_throws_away(monkeypatch):
    # the 480 rows of cyclic_in_shuffle_span(5), 120 of them independent:
    # a kernel pass with combos over every row and rhs made 173,456 row
    # and 423,408 combo updates.  Now a pass with no combos finds the 120,
    # and a second takes them and rhs: 181,998 row and 10,714 combo updates
    systems = []
    monkeypatch.setattr(bimod, "solve", lambda rows, rhs: systems.append((rows, rhs)))
    bimod.cyclic_in_shuffle_span(5)
    [(rows, rhs)] = systems
    assert (len(rows), sparse_rank(rows)) == (480, 120)

    def run():
        systems.append(solve(rows, rhs))

    assert count_line_runs(grdlin._kernel_pass, ("row.get(k, 0) + factor", "combo.get(k, 0) + factor"),
                           run) == ((1, 181998), (1, 10714))
    x = systems[-1]
    assert len(x) <= 120
    total = {}
    for i, c in x.items():
        vec_add(total, rows[i], c)
    assert total == rhs


def test_homology_bases_span_the_homology():
    for build in cache_complexes():
        cx = build().complex
        window = rank_window(cx)
        for t in cx.space.degrees():
            labels = cx.space.by_degree[t]
            hb = HomologyBasis(cx, t)
            assert len(hb.representatives) == hb.dim == window[t]
            for rep in hb.representatives:
                assert cx.d(rep) == {}
            # independent modulo the boundaries, eliminated anew: the
            # boundary columns, then the representatives, into a fresh
            # eliminator
            boundaries, independent = LabelEliminator(), LabelEliminator()
            for v in cx.space.by_degree.get(t - 1, ()):
                boundaries.insert(cx.d.column(v))
                independent.insert(cx.d.column(v))
            for rep in hb.representatives:
                assert independent.insert(rep)[0]
            # and spanning: every cycle is its coords on them plus a boundary
            for vec in kernel_basis([cx.d.column(v) for v in labels]):
                z = {labels[i]: c for i, c in vec.items()}
                residue = dict(z)
                for k, c in hb.coords(z).items():
                    vec_add(residue, hb.representatives[k], -c)
                assert boundaries.reduce(residue)[0] == {}


# --- coordinates read off the cleared kernel -----------------------------------


def boundary_leads(cx, t):
    """Positions of the labels of degree t that lead a pivot row of the
    cached block d^{t-1}."""
    below = cx._block(t - 1)[0]
    return [cx.space.position[v] for v in cx.space.by_degree[t]
            if repr(v) in below.pivots]


def test_homology_bases_eliminate_nothing(monkeypatch):
    # once the blocks are cached, the bases of every degree and the coords
    # of every representative make no reduction and no insertion
    cx = hh_of_algebra(fixture_algebra("cp2"), 9, normalized=True).complex
    degrees = cx.space.degrees()
    window = homology_window(cx, degrees[0], degrees[-1])
    calls = []
    real_reduce, real_insert = _Eliminator._reduce, _Eliminator._insert

    def reduce(self, row):
        calls.append("reduce")
        return real_reduce(self, row)

    def insert(self, row):
        calls.append("insert")
        return real_insert(self, row)

    monkeypatch.setattr(_Eliminator, "_reduce", reduce)
    monkeypatch.setattr(_Eliminator, "_insert", insert)
    reps = 0
    for t in degrees:
        hb = HomologyBasis(cx, t)
        assert [hb.coords(z) for z in hb.representatives] == [{k: 1} for k in range(hb.dim)]
        reps += hb.dim
    assert calls == []
    assert reps == sum(window.values()) == 1045


@pytest.mark.parametrize("tamper", ["own coefficient", "boundary lead", "other own label"])
def test_a_broken_kernel_combo_names_its_representative(tamper):
    t = 5
    cx = hh_of_algebra(fixture_algebra("cp2"), 5).complex
    kernel = cx._block(t)[1]
    lead = boundary_leads(cx, t)[0]
    k = next(k for k, combo in enumerate(kernel) if max(combo) > lead and k)
    combo = dict(kernel[k])
    if tamper == "own coefficient":
        combo[max(combo)] = 2
    elif tamper == "boundary lead":
        combo[lead] = 1
    else:
        combo[max(kernel[0])] = 1
    assert max(combo) == max(kernel[k])
    kernel[k] = combo
    with pytest.raises(CertificateError) as caught:
        HomologyBasis(cx, t)
    labels = cx.space.label_at
    assert caught.value.witness == {labels[i]: c for i, c in combo.items()}


def boundary_meeting_every_lead(cx, t):
    """d of a combination of every label of degree t - 1, with distinct
    coefficients; it holds every lead of the cached block d^{t-1}."""
    boundary = {}
    for j, w in enumerate(cx.space.by_degree.get(t - 1, ())):
        vec_add(boundary, cx.d.column(w), j + 1)
    leads = {cx.space.label_at[i] for i in boundary_leads(cx, t)}
    assert leads and leads <= set(boundary)
    return boundary


def test_coords_clear_boundary_leads():
    # s3: H^2 = 0, and x = dy is the one boundary of degree 2
    cp2 = hh_of_algebra(fixture_algebra("cp2"), 5).complex
    s3 = sphere3_with_differential().complex
    for cx, t in ((cp2, 5), (s3, 2)):
        hb = HomologyBasis(cx, t)
        boundary = boundary_meeting_every_lead(cx, t)
        assert hb.coords(boundary) == {}
        for k, z in enumerate(hb.representatives):
            assert hb.coords(vec_add(dict(z), boundary, -3)) == hb.coords(z) == {k: 1}
    # a vector that is no cycle raises, also with a boundary added
    boundary = boundary_meeting_every_lead(cp2, 5)
    for cx, t, vec in ((cp2, 5, boundary), (s3, 1, {})):
        v = next(v for v in cx.space.by_degree[t] if cx.d.column(v))
        for non_cycle in ({v: 1}, vec_add({v: 1}, vec)):
            with pytest.raises(ValueError, match="not a cycle"):
                HomologyBasis(cx, t).coords(non_cycle)
