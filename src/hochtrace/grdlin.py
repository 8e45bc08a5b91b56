"""Exact graded linear algebra over Q.

Graded vector spaces with named basis elements, sparse graded maps,
cochain complexes (differentials of degree +1, d*d = 0 asserted on
construction), Koszul signs for permutations of graded tensor factors,
and windowed homology by exact Gaussian elimination.

Coefficients are exact rationals, and an integral coefficient is a
Python int: ``ONE`` is the int 1, structure tables are stored through
``int_first``, and ``vec_add``, ``GradedMap`` and the d^2 and chain-map
checks keep int input int.  A Fraction appears only where elimination
divides by a pivot other than +-1 (``_Eliminator._insert``); int and
Fraction values go through the same code, and an integral quotient is
stored as int.  Each degree block d^t of a ``Complex`` is eliminated
once per complex, upward from its lowest degree, and cached on it,
read-only.  The elimination clears (Chen-Kerber): a column whose label
leads a boundary pivot of block t-1 is never inserted, and the kernel
combos left span a complement of the boundaries in the cycles.
``homology_window`` counts them, and ``HomologyBasis`` reads homology
coordinates off them with no second elimination.  Inside ``_Eliminator`` rows
are keyed by the repr string of each label, so that every dict operation of
a reduction hashes a string that caches its hash; the pivot is still the
least-repr label, the order ``hoch.ClassicalHochschild`` relies on.
Koszul signs are the ints +1 and -1.

A permutation is a plain tuple of destination slots: perm[i] is the
slot that factor i moves to.  ``permute`` is the one action on a tuple,
``compose_perms`` the one composition, ``koszul_sign`` the one sign and
``enumerate_shuffles`` lists the (p, q)-shuffles in this format.

``cyclic_rotations`` is the one implementation of the cyclic Koszul
rotation and its sign: every Hochschild, Connes, trace and symmetry
formula that rotates a word of graded factors goes through it.
``chain_map_witness`` is the one chain-map certificate, f d = (-1)^{|f|}
d f with its first failing label: every quotient, comparison, trace and
transfer check of a map of complexes goes through it.

Conventions: cohomological grading; s^n shifts degrees by -n (so the
shift s lowers degrees by 1).  Shifts are pure relabelings of bases and
carry no signs themselves; all signs live in maps and permutations.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .report import CertificateError

ONE = 1


class GradedSpace:
    """A finite graded Q-vector space with a named homogeneous basis.

    ``basis`` is a sequence of (label, degree) pairs.  Labels must be
    hashable and unique; tuples of labels are used for tensor bases.
    """

    __slots__ = ("basis", "degree", "by_degree")

    def __init__(self, basis):
        self.basis = tuple((label, int(deg)) for label, deg in basis)
        self.degree = {}
        self.by_degree = {}
        for label, deg in self.basis:
            if label in self.degree:
                raise ValueError(f"duplicate basis label {label!r}")
            self.degree[label] = deg
            self.by_degree.setdefault(deg, []).append(label)

    @property
    def dim(self):
        return len(self.basis)

    def labels(self):
        return [label for label, _ in self.basis]

    def dim_in_degree(self, t):
        return len(self.by_degree.get(t, ()))

    def degrees(self):
        return sorted(self.by_degree)

    def __contains__(self, label):
        return label in self.degree

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedSpace)
                                 and set(self.basis) == set(other.basis))

    def __hash__(self):
        return hash(frozenset(self.basis))

    def __repr__(self):
        return f"GradedSpace(dim={self.dim}, degrees={self.degrees()})"

    def shifted(self, n=1):
        """s^n: same labels, degrees lowered by n (cohomological shift by -n)."""
        return GradedSpace((label, deg - n) for label, deg in self.basis)


def tensor_space(*spaces) -> GradedSpace:
    """Tensor product; labels are tuples with one slot per factor."""
    basis = [((), 0)]
    for space in spaces:
        basis = [
            (labels + (label,), deg + space.degree[label])
            for labels, deg in basis
            for label in space.labels()
        ]
    return GradedSpace(basis)


def vec_add(target: dict, items, coeff=1):
    """In-place target += coeff * items, dropping zeros.

    A missing entry counts as int 0, so int coefficients times an int
    coeff stay int: integral coefficients are int throughout, and only a
    Fraction operand (from a non-unit pivot) gives a Fraction.
    """
    for label, c in items.items() if isinstance(items, dict) else items:
        value = target.get(label, 0) + coeff * c
        if value:
            target[label] = value
        else:
            target.pop(label, None)
    return target


def vec_add_term(target: dict, label, c):
    """In-place target[label] += c for a nonzero c, dropping a zero sum.

    The one-entry case of vec_add without its multiply by the unit
    coefficient; keys keep the order vec_add would give them.
    """
    old = target.get(label)
    if old is None:
        target[label] = c
    else:
        c = old + c
        if c:
            target[label] = c
        else:
            del target[label]


class GradedMap:
    """A degree-homogeneous linear map given by sparse columns.

    ``entries[src_label]`` is a dict target_label -> coefficient, kept as
    given with zeros dropped: an int for every integral coefficient, a
    Fraction only where elimination divided by a non-unit pivot.  Every
    entry must raise degrees by exactly ``degree``.

    The map takes the caller's column dicts: one pass scans each column
    for zeros (and checks its degrees when ``check``), and only a column
    holding a zero is copied.  A caller must not mutate a column after
    handing it over.
    """

    __slots__ = ("source", "target", "degree", "entries")

    def __init__(self, source, target, degree, entries, check=True):
        self.source = source
        self.target = target
        self.degree = degree = int(degree)
        self.entries = kept = {}
        target_degree = target.degree
        for v, col in entries.items():
            if not all(col.values()):
                col = {w: c for w, c in col.items() if c}
            if not col:
                continue
            if check:
                dw = source.degree[v] + degree
                for w in col:
                    if target_degree[w] != dw:
                        raise ValueError(f"entry {v!r} -> {w!r} violates degree {degree}")
            kept[v] = col

    @classmethod
    def zero(cls, source, target, degree=0):
        return cls(source, target, degree, {}, check=False)

    @classmethod
    def identity(cls, space):
        return cls(space, space, 0, {v: {v: ONE} for v in space.labels()}, check=False)

    def __call__(self, vec: dict) -> dict:
        out = {}
        for v, c in vec.items():
            col = self.entries.get(v)
            if col:
                vec_add(out, col, c)
        return out

    def column(self, v) -> dict:
        return dict(self.entries.get(v, {}))

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self o other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        entries = {}
        for v in other.entries:
            col = self(other.entries[v])
            if col:
                entries[v] = col
        return GradedMap(other.source, self.target, self.degree + other.degree,
                         entries, check=False)

    def __add__(self, other):
        if (self.source, self.target, self.degree) != (
                other.source, other.target, other.degree):
            raise ValueError("sum mismatch")
        entries = {v: dict(col) for v, col in self.entries.items()}
        for v, col in other.entries.items():
            vec_add(entries.setdefault(v, {}), col)
        return GradedMap(self.source, self.target, self.degree, entries, check=False)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        return GradedMap(self.source, self.target, self.degree,
                         {v: {w: coeff * c for w, c in col.items()}
                          for v, col in self.entries.items()},
                         check=False)

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.entries == other.entries)

    def __repr__(self):
        return (f"GradedMap(degree={self.degree}, "
                f"{self.source.dim}->{self.target.dim}, nnz={sum(len(c) for c in self.entries.values())})")


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """f (x) g with the Koszul rule: (f(x)g)(x(x)y) = (-1)^{|g||x|} f(x)(x)g(y)."""
    source = tensor_space(f.source, g.source)
    target = tensor_space(f.target, g.target)
    degree = f.degree + g.degree
    entries = {}
    for x in f.source.labels():
        fx = f.entries.get(x)
        if not fx:
            continue
        sign = -ONE if (g.degree * f.source.degree[x]) % 2 else ONE
        for y in g.source.labels():
            gy = g.entries.get(y)
            if not gy:
                continue
            col = {}
            for xv, xc in fx.items():
                for yv, yc in gy.items():
                    col[(xv, yv)] = sign * xc * yc
            entries[(x, y)] = col
    return GradedMap(source, target, degree, entries, check=False)


def permute(perm, items):
    """Reorder a tuple by a permutation: result[perm[i]] = items[i].  No sign."""
    out = [None] * len(perm)
    for i, x in enumerate(items):
        out[perm[i]] = x
    return tuple(out)


def compose_perms(sigma, tau):
    """sigma o tau: apply tau first."""
    return tuple(sigma[t] for t in tau)


def koszul_sign(perm, degrees) -> int:
    """(-1)^(sum of |x_i||x_j| over pairs i<j that the permutation
    inverts), as the int +1 or -1; ``perm`` is a destination tuple."""
    degrees = list(degrees)
    if len(degrees) != len(perm):
        raise ValueError("degree list does not match permutation size")
    exponent = 0
    for i in range(len(perm)):
        if degrees[i] % 2 == 0:
            continue
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j] and degrees[j] % 2:
                exponent += 1
    return -1 if exponent % 2 else 1


def cyclic_rotations(items, degrees):
    """Every cyclic rotation of a tuple of graded factors, with its sign.

    Yields (l, items[n-l:] + items[:n-l], parity) for l = 0..n-1: the
    last l factors moved to the front, whose Koszul sign is (-1)^parity
    with parity = |moved block| * |rest| mod 2.  This is the sign of the
    rotation (1, 2, .., n - 1, 0) composed l times.
    """
    items = tuple(items)
    n = len(items)
    total = sum(degrees)
    moved = 0
    for l in range(n):
        yield l, items[n - l:] + items[:n - l], (moved * (total - moved)) % 2
        moved += degrees[n - 1 - l]


class Complex:
    """A cochain complex: graded space plus a degree +1 differential.

    d o d = 0 is asserted on construction, one column d(d(v)) at a time;
    a failure raises CertificateError("d*d != 0") with witness (the first
    label v in ``d.entries`` order, its d*d column).  With check=False the
    caller vouches for d o d = 0, which the elimination relies on.

    Each degree block d^t is eliminated at most once per complex, when
    ``homology_window`` or ``HomologyBasis`` first needs it.  Blocks are
    filled upward from the lowest degree of the space, so the result does
    not depend on the order of the calls, and block t clears: a column
    whose label leads a pivot row z_j of block t-1 is never inserted.
    The z_j are boundaries, so d(z_j) = 0, and with the uncleared basis
    vectors they form a unitriangular basis of C^t.  So the uncleared
    columns span the image of d^t (rank d^t is unchanged), and their
    kernel combos span a complement of the boundaries in the cycles, one
    combo per class of H^t.  The uncleared columns go in basis order
    through one ``_Eliminator`` that tracks {i: 1} combos.  The complex
    keeps that eliminator with the combos of its pivot rows dropped
    (rank d^t is the number of pivots) and the kernel combos, over the
    indices of ``space.by_degree[t]``.  The cache is read-only once
    filled, so ``d`` must not change after the first use.  ``HomologyBasis``
    reads coordinates off the kernel combos and the leads of block t-1.
    """

    __slots__ = ("space", "d", "_blocks")

    def __init__(self, space: GradedSpace, d: GradedMap, check=True):
        if d.source != space or d.target != space:
            raise ValueError("differential must be an endomap of the space")
        if d.degree != 1:
            raise ValueError("differential must have degree +1")
        self.space = space
        self.d = d
        self._blocks = {}
        if check:
            for v, col in d.entries.items():
                ddv = d(col)
                if ddv:
                    raise CertificateError("d*d != 0", (v, ddv))

    def __repr__(self):
        return f"Complex(dim={self.space.dim}, degrees={self.space.degrees()})"

    def _block(self, t):
        """(eliminator of the uncleared columns of d^t, their kernel
        combos), cached; every uncached block from the lowest degree of
        the space up to t is filled first."""
        blocks = self._blocks
        block = blocks.get(t)
        if block is None:
            start = t
            lowest = min(self.space.by_degree, default=t)
            while start > lowest and start - 1 not in blocks:
                start -= 1
            entries = self.d.entries
            for s in range(start, t + 1):
                below = blocks.get(s - 1)
                cleared = ({below[0]._labels[key] for key in below[0].pivots}
                           if below else ())
                elim, kernel = _eliminate(
                    (i, entries.get(v, {}))
                    for i, v in enumerate(self.space.by_degree.get(s, ()))
                    if v not in cleared)
                elim.pivots = {col: (row, None) for col, (row, _) in elim.pivots.items()}
                block = blocks[s] = (elim, kernel)
        return block


# ---------------------------------------------------------------------------
# exact elimination


def sparse_rank(rows) -> int:
    """Rank of a sparse matrix given as a list of dict rows (not modified)."""
    elim = _Eliminator()
    for row in rows:
        elim._insert(row, None)
    return len(elim.pivots)


def dense_rank(matrix) -> int:
    """Rank by dense fraction elimination; independent oracle for sparse_rank."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row_at = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row_at, len(m)):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row_at], m[pivot_row] = m[pivot_row], m[row_at]
        pivot = m[row_at][col]
        for r in range(len(m)):
            if r != row_at and m[r][col]:
                factor = m[r][col] / pivot
                m[r] = [a - factor * b for a, b in zip(m[r], m[row_at])]
        row_at += 1
        rank += 1
        if row_at == len(m):
            break
    return rank


def int_first(vec):
    """A copy of vec without zeros, integral Fractions turned into int.

    The one normalizer at the boundary where structure tables come in:
    a table written with Fraction(1) then takes the int path too."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in vec.items() if c}


class _Eliminator:
    """Incremental sparse Gaussian elimination with row-combination tracking.

    The pivot of a row is its leading column: the label with the least
    repr (``lead``).  ``hoch.ClassicalHochschild`` relies on this order
    to keep its "a"-tagged relation labels ahead of its "z"-tagged basis;
    it inserts through ``_insert`` and reads a lead as ``_labels[min(row)]``.

    Inside, rows are keyed by the repr string of each label, computed
    once when a row brings the label in, and ``pivots`` maps the repr of
    each leading label to its row: the pivot of a row is then ``min(row)``,
    a string compare, and every dict operation hashes a string that caches
    its hash.  Two labels with one repr would share a column and raise
    ValueError instead.  ``insert`` and ``reduce`` take and return rows
    keyed by label, as does ``clear``.  Combos stay keyed by the caller's
    index.

    Rows and combos are copied on entry, with zero entries dropped and
    integral Fractions turned into int.  Pivot rows and their combos are
    stored normalized to leading coefficient 1, so a reduction step
    multiplies but never divides, and integral input stays int unless a
    pivot p is not +-1: ``_insert`` then scales by Fraction(1, p), the one
    division in the library outside the ``dense_rank`` oracle.  Returned
    rows, combos and the results built from them may therefore hold int
    as well as Fraction coefficients.
    """

    def __init__(self):
        self.pivots = {}  # repr of the leading label -> (normalized row, combo)
        self._keys = {}  # label -> repr(label)
        self._labels = {}  # repr(label) -> label

    def _keyed(self, row):
        """A copy of a label-keyed row keyed by repr, zeros dropped and
        integral Fractions turned into int (as ``int_first``)."""
        keys = self._keys
        out = {}
        for label, c in row.items():
            if c:
                key = keys.get(label)
                if key is None:
                    key = repr(label)
                    other = self._labels.setdefault(key, label)
                    if other is not label:
                        raise ValueError(
                            f"labels {other!r} and {label!r} share the repr {key}")
                    keys[label] = key
                out[key] = c.numerator if c.denominator == 1 else c
        return out

    def _labelled(self, row):
        """A repr-keyed row keyed by label again."""
        labels = self._labels
        return {labels[key]: c for key, c in row.items()}

    def lead(self, row):
        """The leading (pivot) label of a nonempty label-keyed row that
        went through this eliminator."""
        return min(row, key=self._keys.__getitem__)

    def _reduce(self, row, combo):
        """Reduce a repr-keyed copy of row, which is keyed by label, against
        the pivots; returns (row, combo), the pivot combos subtracted
        being added to combo in place (None: not tracked)."""
        row = self._keyed(row)
        pivots = self.pivots
        while row:
            col = min(row)
            hit = pivots.get(col)
            if hit is None:
                break
            pivot_row, pivot_combo = hit
            factor = -row[col]
            vec_add(row, pivot_row, factor)
            if combo is not None and pivot_combo is not None:
                vec_add(combo, pivot_combo, factor)
        return row, combo

    def _insert(self, row, combo):
        """``_reduce``, then store the surviving row, normalized, as a
        pivot.  Returns the repr-keyed (row, combo)."""
        row, combo = self._reduce(row, combo)
        if row:
            col = min(row)
            p = row[col]
            if p != 1:
                row = _normalized(row, p)
                if combo is not None:
                    combo = _normalized(combo, p)
            self.pivots[col] = (row, combo)
        return row, combo

    def reduce(self, row, combo=None):
        """Reduce a copy of row against the pivots; returns (row, combo),
        combo tracking the pivot combos subtracted (None: not tracked)."""
        row, combo = self._reduce(row, None if combo is None else int_first(combo))
        return self._labelled(row), combo

    def insert(self, row, combo=None):
        """Reduce and insert if independent. Returns the surviving (row,
        combo), normalized when the row is nonzero."""
        row, combo = self._insert(row, None if combo is None else int_first(combo))
        return self._labelled(row), combo

    def clear(self, row):
        """A label-keyed copy of row, zeros dropped, with every entry at a
        pivot's lead reduced away, least lead first.  The eliminator does
        not change: a label it has not seen leads no pivot."""
        keys, labels, pivots = self._keys, self._labels, self.pivots
        row = {label: c for label, c in row.items() if c}
        while leads := [key for key in map(keys.get, row) if key in pivots]:
            key = min(leads)
            c = row[labels[key]]
            for k, p in pivots[key][0].items():
                vec_add_term(row, labels[k], -c * p)
        return row


def _normalized(vec, p):
    """vec scaled by the inverse of a pivot p other than 1: negated for
    p = -1, else multiplied by Fraction(1, p), with each integral
    quotient stored as int."""
    if p == -1:
        return {k: -c for k, c in vec.items()}
    return int_first({k: c * Fraction(1, p) for k, c in vec.items()})


def _eliminate(indexed_rows):
    """Insert each (i, row) with combo {i: 1} into one new eliminator;
    returns it and the combos of the rows that reduced to zero."""
    elim = _Eliminator()
    kernel = []
    for i, r in indexed_rows:
        row, combo = elim._insert(r, {i: 1})
        if not row:
            kernel.append(combo)
    return elim, kernel


def kernel_basis(rows):
    """Basis of {x : sum_i x_i * rows[i] = 0}, as dicts over row indices."""
    return _eliminate(enumerate(rows))[1]


def solve(rows, rhs):
    """One solution x of sum_i x_i rows[i] = rhs, or None.

    ``rows`` are dict rows; ``rhs`` a dict over the same column labels.
    """
    elim, _ = _eliminate(enumerate(rows))
    residue, neg_solution = elim._reduce(rhs, {})
    if residue:
        return None
    return {i: -c for i, c in neg_solution.items()}


def homology_window(cx: Complex, t_min, t_max) -> dict:
    """dim H^t for t in [t_min, t_max]: the number of kernel combos of
    the complex's cleared block d^t, which is dim ker d^t - rank d^{t-1}."""
    return {t: len(cx._block(t)[1]) for t in range(t_min, t_max + 1)}


class HomologyBasis:
    """Representatives of H^t plus exact projection to homology coordinates.

    The representatives z_k are the kernel combos of the complex's cleared
    block d^t, in order: they span a complement of the boundaries in the
    cycles (see ``Complex``).  Coordinates are read off them by three facts:
    - z_k has coefficient 1 at its own label, that of its index
      ``max(combo)``, and no other z_j holds it: a kernel combo holds
      only its own index and indices of pivot columns;
    - no z_k holds a lead of a pivot row of block d^{t-1}, a cleared label;
    - every nonzero boundary holds such a lead, its least-repr label.
    Construction certifies the first two, which make the z_k independent
    modulo the boundaries, and raises CertificateError with witness z_k
    where one fails.
    """

    def __init__(self, cx: Complex, t):
        labels = cx.space.by_degree.get(t, [])
        cycles = cx._block(t)[1]
        self._boundaries = below = cx._block(t - 1)[0]
        self._own = {labels[max(combo)]: k for k, combo in enumerate(cycles)}
        keys, pivots = below._keys, below.pivots
        self.representatives = []
        for k, combo in enumerate(cycles):
            z = {labels[i]: c for i, c in combo.items()}
            if (z[labels[max(combo)]] != 1 or len(self._own.keys() & z.keys()) > 1
                    or not pivots.keys().isdisjoint(map(keys.get, z))):
                raise CertificateError(
                    "homology representative is not read off the cleared kernel", z)
            self.representatives.append(z)

    @property
    def dim(self):
        return len(self.representatives)

    def coords(self, vec: dict):
        """Homology coordinates of a cycle (boundaries project to zero): the
        residue of vec with the boundary leads cleared is sum a_k z_k, a_k
        its coefficient at the own label of z_k, or vec is no cycle."""
        residue = self._boundaries.clear(vec)
        own = self._own
        coords = int_first({own[v]: c for v, c in residue.items() if v in own})
        for k, c in coords.items():
            vec_add(residue, self.representatives[k], -c)
        if residue:
            raise ValueError("vector is not a cycle modulo boundaries")
        return coords


def chain_map_witness(f: GradedMap, d_source: GradedMap, d_target: GradedMap):
    """The one chain-map certificate: None when f d = (-1)^{|f|} d f, the
    rule for a map of complexes of degree |f|, else (v, its column of
    f d - (-1)^{|f|} d f) at the first label v of ``f.source``, in basis
    order.  Checked one column at a time, with no composite map built;
    ValueError when f and the differentials do not share their spaces."""
    if d_source.target != f.source or f.target != d_target.source:
        raise ValueError("chain map and differentials do not share their spaces")
    sign = -1 if f.degree % 2 else 1
    for v, _deg in f.source.basis:
        col = f(d_source.entries.get(v, {}))
        fv = f.entries.get(v)
        if fv:
            vec_add(col, d_target(fv), -sign)
        if col:
            return v, col
    return None


def is_quasi_iso_window(f: GradedMap, source: Complex, target: Complex,
                        t_min, t_max) -> bool:
    """True iff the chain map f induces isomorphisms on H^t for all t in
    window; CertificateError with the chain-map witness when f is none."""
    if witness := chain_map_witness(f, source.d, target.d):
        raise CertificateError("not a chain map", witness)
    for t in range(t_min, t_max + 1):
        hs = HomologyBasis(source, t)
        ht = HomologyBasis(target, t)
        if hs.dim != ht.dim:
            return False
        if sparse_rank([ht.coords(f(rep)) for rep in hs.representatives]) != ht.dim:
            return False
    return True


def enumerate_shuffles(p, q):
    """All (p,q)-shuffles as destination tuples: destinations of block 1
    increasing, likewise block 2, in the lexicographic order of block 1."""
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    return [first + tuple(i for i in range(p + q) if i not in first)
            for first in combinations(range(p + q), p)]
