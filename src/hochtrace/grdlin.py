"""Exact graded linear algebra over Q.

Graded vector spaces with named basis elements, sparse graded maps,
cochain complexes (differentials of degree +1, d*d = 0 asserted on
construction), Koszul signs for permutations of graded tensor factors,
and windowed homology by exact Gaussian elimination.  Maps keep their
columns on basis positions, so the d^2 and chain-map checks, composition
and elimination hash no label; labels appear only at the boundary:
label input, ``column``, ``__call__``, ``entries`` and every witness.

Coefficients are exact rationals, and an integral coefficient is a
Python int: ``ONE`` is the int 1, structure tables are stored through
``int_first``, and ``vec_add``, ``GradedMap`` and the d^2 and chain-map
checks keep int input int.  A Fraction appears only where elimination
divides by a pivot other than +-1 (``_normalized``); int and Fraction
values go through the same code, and an integral quotient, and every
integral coefficient of a kernel combo, is stored as int.

Elimination has two engines, one per kind of output:
- ``_kernel_pass`` answers what does not depend on the pivot order: the
  kernel combos and the greedy independent columns.  It keys rows by
  target position and pivots on the latest target.  The kernel of every
  ``Complex`` block, ``kernel_basis``, ``solve`` and ``sparse_rank`` run
  through it, the last three with labels indexed by first appearance
  (``sparse_rank``, and ``solve`` to find its rows, with no combos);
- the least-repr ``_Eliminator`` serves where a lead set is the output:
  the boundary echelon of a ``Complex`` block (``_echelon``) and
  ``hoch.ClassicalHochschild``.  It pivots on the least-repr label, with
  rows keyed by the repr string of each label, taken once per target
  (``_echelon``), or by its rank in a ``repr_ranks`` table (the oracle).
Each degree block d^t of a ``Complex`` is eliminated once per complex,
upward from its lowest degree, and cached on it, read-only.  The
elimination clears (Chen-Kerber): a column whose label leads a boundary
pivot of block t-1 is never inserted, and the kernel combos left span a
complement of the boundaries in the cycles (see ``Complex``).
``homology_window`` counts the kernel combos, and ``HomologyBasis``
reads homology coordinates off them with no second elimination.  Koszul
signs are the ints +1 and -1.

A permutation is a plain tuple of destination slots: perm[i] is the
slot that factor i moves to.  ``permute`` is the one action on a tuple,
``compose_perms`` the one composition, ``koszul_sign`` the one sign and
``enumerate_shuffles`` lists the (p, q)-shuffles in this format.

``cyclic_rotations`` is the one implementation of the cyclic Koszul
rotation and its sign (``rotation_parities``, the signs alone): every
Hochschild, Connes, trace and symmetry formula that rotates a word of
graded factors goes through it.
``chain_map_witness`` is the one chain-map certificate, f d = (-1)^{|f|}
d f with its first failing label: every quotient, comparison, trace and
transfer check of a map of complexes goes through it.

Conventions: cohomological grading; s^n shifts degrees by -n (so the
shift s lowers degrees by 1).  Shifts are pure relabelings of bases and
carry no signs themselves; all signs live in maps and permutations.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations

from .report import CertificateError

ONE = 1


class GradedSpace:
    """A finite graded Q-vector space with a named homogeneous basis.

    ``basis`` is a sequence of (label, degree) pairs.  Labels must be
    hashable and unique; tuples of labels are used for tensor bases.  A
    label's position is its place in ``basis`` (``position``, ``label_at``,
    ``degree_at``, ``positions_by_degree``); spaces are equal when their
    bases are, in order, so equal spaces share their positions.
    """

    __slots__ = ("basis", "degree", "position", "label_at", "degree_at", "positions_by_degree")

    def __init__(self, basis):
        self.basis = basis = tuple([(label, int(deg)) for label, deg in basis])
        self.label_at = labels = [label for label, _ in basis]
        self.degree_at = [deg for _, deg in basis]
        self.position = dict(zip(labels, range(len(labels))))
        if len(self.position) != len(basis):  # name the first repeat, scanning in order
            seen = set()
            label = next(label for label in labels if label in seen or seen.add(label))
            raise ValueError(f"duplicate basis label {label!r}")
        self.degree = dict(basis)
        self.positions_by_degree = blocks = {}
        for p, deg in zip(self.position.values(), self.degree_at):  # one int object per position
            blocks.setdefault(deg, []).append(p)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def by_degree(self):
        """The labels of each degree, in basis order, built on each read."""
        labels = self.label_at
        return {deg: [labels[p] for p in block] for deg, block in self.positions_by_degree.items()}

    def labels(self):
        return list(self.label_at)

    def dim_in_degree(self, t):
        return len(self.positions_by_degree.get(t, ()))

    def degrees(self):
        return sorted(self.positions_by_degree)

    def __contains__(self, label):
        return label in self.position

    def __eq__(self, other):
        return self is other or (isinstance(other, GradedSpace) and self.basis == other.basis)

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"GradedSpace(dim={self.dim}, degrees={self.degrees()})"

    def named(self, vec: dict) -> dict:
        """A vector keyed by position, keyed by label in the same order."""
        labels = self.label_at
        return {labels[i]: c for i, c in vec.items()}

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


def vec_add(target: dict, items: dict, coeff=1):
    """In-place target += coeff * items, dropping zeros.

    A missing entry counts as int 0, so int coefficients times an int
    coeff stay int: integral coefficients are int throughout, and only a
    Fraction operand (from a non-unit pivot) gives a Fraction.
    """
    for label, c in items.items():
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
    """A degree-homogeneous linear map, its sparse columns on basis positions.

    ``columns[i]`` is the column of source position i, a dict target
    position -> coefficient in the order given, zeros dropped: an int for
    every integral coefficient, a Fraction only where elimination divided
    by a non-unit pivot.  Every entry must raise degrees by ``degree``.

    The constructor takes label-keyed columns and looks each label up
    once; ``on_positions`` takes int columns and keeps the caller's dicts
    (a caller must not mutate one after).  Labels appear only at the
    boundary: ``column``, ``__call__`` and the ``entries`` view.
    """

    __slots__ = ("source", "target", "degree", "columns")

    def __init__(self, source, target, degree, entries):
        position, at = source.position, target.position
        self._store(source, target, degree, {position[v]: {at[w]: c for w, c in col.items() if c}
                                             for v, col in entries.items() if col})

    @classmethod
    def on_positions(cls, source, target, degree, columns):
        f = cls.__new__(cls)
        f._store(source, target, degree, columns)
        return f

    def _store(self, source, target, degree, columns):
        """Keep the nonzero columns; ValueError names an entry off degree."""
        self.source, self.target = source, target
        self.degree = degree = int(degree)
        self.columns = kept = {}
        source_degree, target_degree = source.degree_at, target.degree_at
        for i, col in columns.items():
            if not all(col.values()):
                col = {j: c for j, c in col.items() if c}
            if col:
                dw = source_degree[i] + degree
                for j in col:
                    if target_degree[j] != dw:
                        raise ValueError(f"entry {source.label_at[i]!r} -> "
                                         f"{target.label_at[j]!r} violates degree {degree}")
                kept[i] = col

    @classmethod
    def zero(cls, source, target, degree=0):
        return cls.on_positions(source, target, degree, {})

    @classmethod
    def identity(cls, space):
        return cls.on_positions(space, space, 0, {i: {i: ONE} for i in range(space.dim)})

    @property
    def entries(self) -> Mapping:
        """The columns keyed by label: a read-only view, in stored order."""
        return _Entries(self)

    def _image(self, vec: dict) -> dict:
        """The image of a vector on positions, accumulated as ``vec_add``
        would: a sum that reaches zero drops its key, and a zero
        coefficient in vec adds nothing and raises nothing."""
        out = {}
        columns, get = self.columns, out.get
        for v, c in vec.items():
            col = columns.get(v)
            if col:
                for w, x in col.items():
                    value = get(w, 0) + c * x
                    if value:
                        out[w] = value
                    else:
                        out.pop(w, None)
        return out

    def __call__(self, vec: dict) -> dict:
        """The image of a label-keyed vector; a label outside the source adds nothing."""
        position = self.source.position
        return self.target.named(self._image(
            {i: c for v, c in vec.items() if (i := position.get(v)) is not None}))

    def column(self, v) -> dict:
        col = self.columns.get(self.source.position.get(v))
        return self.target.named(col) if col else {}

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self o other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return GradedMap.on_positions(other.source, self.target, self.degree + other.degree,
                                      {i: self._image(c) for i, c in other.columns.items()})

    def __add__(self, other):
        if (self.source, self.target, self.degree) != (
                other.source, other.target, other.degree):
            raise ValueError("sum mismatch")
        columns = {i: dict(col) for i, col in self.columns.items()}
        for i, col in other.columns.items():
            vec_add(columns.setdefault(i, {}), col)
        return GradedMap.on_positions(self.source, self.target, self.degree, columns)

    def scale(self, coeff):
        return GradedMap.on_positions(self.source, self.target, self.degree,
                                      {i: {j: coeff * c for j, c in col.items()}
                                       for i, col in self.columns.items()})

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.columns == other.columns)

    def __repr__(self):
        return (f"GradedMap(degree={self.degree}, "
                f"{self.source.dim}->{self.target.dim}, nnz={sum(len(c) for c in self.columns.values())})")


class _Entries(Mapping):
    """A map's columns keyed by label, read-only and in stored order; a
    column is turned into labels each time it is read."""

    def __init__(self, f):
        self.f = f

    def __getitem__(self, v):
        return self.f.target.named(self.f.columns[self.f.source.position[v]])

    def __iter__(self):
        return map(self.f.source.label_at.__getitem__, self.f.columns)

    def __len__(self):
        return len(self.f.columns)


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """f (x) g with the Koszul rule: (f(x)g)(x(x)y) = (-1)^{|g||x|} f(x)(x)g(y);
    (x, y) sits at position x * dim + y of its tensor space."""
    source = tensor_space(f.source, g.source)
    target = tensor_space(f.target, g.target)
    n_source, n_target = g.source.dim, g.target.dim
    columns = {}
    for x, fx in sorted(f.columns.items()):  # in basis order
        sign = -ONE if (g.degree * f.source.degree_at[x]) % 2 else ONE
        for y, gy in sorted(g.columns.items()):
            columns[x * n_source + y] = {xv * n_target + yv: sign * xc * yc
                                         for xv, xc in fx.items() for yv, yc in gy.items()}
    return GradedMap.on_positions(source, target, f.degree + g.degree, columns)


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
    for l, parity in enumerate(rotation_parities(degrees)):
        yield l, items[n - l:] + items[:n - l], parity


def rotation_parities(degrees):
    """The parities of the signs of ``cyclic_rotations``, as a list over
    l = 0..n-1, for a caller that does not need the rotated tuples."""
    total, moved, parities = sum(degrees), 0, []
    for deg in reversed(degrees):
        parities.append(moved * (total - moved) % 2)
        moved += deg
    return parities


class Complex:
    """A cochain complex: graded space plus a degree +1 differential.

    d o d = 0 is asserted on construction, one column d(d(v)) at a time on
    positions; a failure raises CertificateError("d*d != 0") with witness
    (the first label v in column order, its d*d column keyed by label).

    Each degree block d^t is eliminated at most once per complex, when
    ``homology_window`` or ``HomologyBasis`` first needs it.  Blocks are
    filled upward from the lowest degree of the space, so the result does
    not depend on the order of the calls, and block t clears: a column
    whose label leads a pivot row z_j of block t-1 is never inserted.
    The z_j are boundaries, so d(z_j) = 0, and with the uncleared basis
    vectors they form a unitriangular basis of C^t.  So the uncleared
    columns span the image of d^t (rank d^t is unchanged), and their
    kernel combos span a complement of the boundaries in the cycles, one
    combo per class of H^t.

    A block takes two passes, ``_kernel_pass`` and ``_echelon``, both on
    the int columns of d, so no label is hashed:
    - the kernel pass puts the uncleared columns in, in basis order, each
      column i with the combo {i: 1} and pivoting on its latest target.
      The columns that do not reduce to zero are the independent set P,
      the greedy basis in insertion order, whatever the pivot order; and a
      column i that reduces to zero has exactly one combo of the form
      e_i - sum_{j in P, j < i} a_j e_j, since the columns of P are
      independent.  So the kernel combos are those of any elimination in
      basis order, the least-repr one included;
    - the echelon pass puts only the columns of P, last first, into a
      least-repr ``_Eliminator``.  They span the image of d^t, and the
      least-repr lead set of a subspace does not depend on the rows that
      span it, so the cleared labels of block t+1, the representatives,
      their coordinates and every window are those of a single
      least-repr pass.  It takes each target's repr once.
    The complex keeps that eliminator (rank d^t is the number of its
    pivots), the kernel combos and {position of each lead: its repr key}.
    The cache is read-only once filled, so ``d`` must not change after
    the first use.  ``HomologyBasis`` reads coordinates off the kernel
    combos and the leads of block t-1.
    """

    __slots__ = ("space", "d", "_blocks")

    def __init__(self, space: GradedSpace, d: GradedMap):
        if d.source != space or d.target != space:
            raise ValueError("differential must be an endomap of the space")
        if d.degree != 1:
            raise ValueError("differential must have degree +1")
        self.space = space
        self.d = d
        self._blocks = {}
        image = d._image
        for v, col in d.columns.items():
            if ddv := image(col):
                raise CertificateError("d*d != 0", (space.label_at[v], space.named(ddv)))

    def __repr__(self):
        return f"Complex(dim={self.space.dim}, degrees={self.space.degrees()})"

    def _block(self, t):
        """(least-repr eliminator of the independent columns of d^t, the
        kernel combos of its uncleared columns, the positions of its leads:
        the labels block t+1 clears),
        cached; every uncached block from the lowest degree of the space
        up to t is filled first."""
        blocks = self._blocks
        block = blocks.get(t)
        if block is None:
            start = t
            lowest = min(self.space.positions_by_degree, default=t)
            while start > lowest and start - 1 not in blocks:
                start -= 1
            space, columns = self.space, self.d.columns
            for s in range(start, t + 1):
                below = blocks.get(s - 1)
                kernel, independent = _kernel_pass(
                    space.positions_by_degree.get(s, ()), below[2] if below else (), columns)
                boundaries, leads = _echelon(reversed(independent.values()), space)
                block = blocks[s] = (boundaries, kernel, leads)
        return block


def _kernel_pass(sources, cleared, columns, track=True):
    """(kernel combos, independent columns) of the int columns columns[i]
    of the positions i of ``sources`` not in ``cleared``.

    The columns go in in order, each with the combo {i: 1}; the pivot of
    a row is its greatest position, the target latest in the basis.  An
    empty column goes straight to the kernel.  A pivot row led by +-1 is
    stored as it is, with that sign, any other normalized to lead 1.
    Kernel combos are int while no pivot has been normalized and every
    factor has been an int; from then on each is stored through
    ``int_first``, so its integral coefficients are int whatever the pivot
    order.  The independent columns are returned as {i: column} in order,
    the stored dicts themselves; with ``track`` false every combo is left
    empty.  One loop, with no call per row or per reduction step."""
    pivots = {}  # position of the leading target -> (row, combo, inverse of the lead)
    kernel, independent = [], {}
    exact = True  # no pivot normalized and every factor an int so far
    for i in sources:
        if i in cleared:
            continue
        col = columns.get(i)
        if not col:
            kernel.append({i: 1})
            continue
        row = col.copy()
        combo = {i: 1} if track else {}
        while row:
            j = max(row)
            hit = pivots.get(j)
            if hit is None:
                p = row[j]
                if p == 1 or p == -1:
                    pivots[j] = (row, combo, p)
                else:
                    pivots[j] = (_normalized(row, p), _normalized(combo, p), 1)
                    exact = False
                independent[i] = col
                break
            pivot_row, pivot_combo, inverse = hit
            factor = -inverse * row[j]
            if type(factor) is not int:
                exact = False
            for k, c in pivot_row.items():
                c = row.get(k, 0) + factor * c
                if c:
                    row[k] = c
                else:
                    del row[k]
            for k, c in pivot_combo.items():
                c = combo.get(k, 0) + factor * c
                if c:
                    combo[k] = c
                else:
                    del combo[k]
        else:
            kernel.append(combo if exact else int_first(combo))
    return kernel, independent


def _echelon(rows, space):
    """(least-repr ``_Eliminator`` of rows keyed by position in ``space``,
    {position of each lead: its repr key}), inserted in turn.

    Each target's repr is taken once, through the space's labels, when a
    row first holds it, and the pivots are those ``_Eliminator._insert``
    would store from the rows keyed by label.  One loop, with no call per
    row or per reduction step."""
    elim = _Eliminator()
    labels, pivots, position_of = elim._labels, elim.pivots, elim._position
    label_at = space.label_at
    reprs = {}  # target position -> repr key
    for column in rows:
        row = {}
        for j, c in column.items():
            key = reprs.get(j)
            if key is None:
                w = label_at[j]
                key = reprs[j] = repr(w)
                if labels.setdefault(key, w) is not w:
                    elim._key(w)  # raises: another label holds the repr
                position_of[key] = j
            row[key] = c
        while row:
            col = min(row)
            hit = pivots.get(col)
            if hit is None:
                p = row[col]
                pivots[col] = row if p == 1 else _normalized(row, p)
                break
            factor = -row[col]
            for k, c in hit.items():
                c = row.get(k, 0) + factor * c
                if c:
                    row[k] = c
                else:
                    del row[k]
    return elim, {position_of[key]: key for key in pivots}


# ---------------------------------------------------------------------------
# exact elimination


def _row_pass(rows, track=True):
    """``_kernel_pass`` over dict rows as its columns: zeros dropped and
    integral Fractions turned into int, each label indexed in order of
    first appearance, each kernel combo keyed by row index (and empty
    unless ``track``)."""
    index = {}
    columns = {i: {index.setdefault(w, len(index)): c for w, c in int_first(row).items()}
               for i, row in enumerate(rows)}
    return _kernel_pass(range(len(columns)), (), columns, track)


def sparse_rank(rows) -> int:
    """Rank of a sparse matrix given as a list of dict rows (not modified):
    the number of independent rows of a kernel pass with no combos."""
    return len(_row_pass(rows, False)[1])


def kernel_basis(rows):
    """Basis of {x : sum_i x_i * rows[i] = 0}, as dicts over row indices:
    one combo per row that depends on the rows before it, with
    coefficient 1 at that row."""
    return _row_pass(rows)[0]


def solve(rows, rhs):
    """One solution x of sum_i x_i rows[i] = rhs, or None.

    ``rows`` are dict rows; ``rhs`` a dict over the same column labels.
    A kernel pass with no combos finds the greedy independent rows; a
    second takes them, then rhs, which is in their span iff it has a
    kernel combo (coefficient 1 at rhs).  x is the rest of that combo
    negated, the one solution supported on the greedy rows.
    """
    greedy = list(_row_pass(rows, False)[1])
    kernel = _row_pass([rows[i] for i in greedy] + [rhs])[0]
    if not kernel:
        return None
    return {greedy[k]: -c for k, c in kernel[0].items() if k < len(greedy)}


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
    """Least-repr sparse Gaussian elimination, where a lead set is the output.

    The pivot of a row is its leading column: the label with the least
    repr.  ``_echelon`` fills one with the boundary rows of a ``Complex``
    block, whose leads the block above clears, as ``HomologyBasis.coords``
    does.  No row combination is tracked: kernel combos and solutions come
    from the kernel pass.

    Rows are keyed so that the least key is the least-repr label, and
    ``pivots`` maps the key of each leading label to its row, so the pivot
    of a row is ``min(row)``.  ``_echelon`` keys by the repr string of each
    label (``_key``, read back through ``_labels``; two labels with one
    repr raise ValueError); ``hoch.ClassicalHochschild`` by its int rank in
    a ``repr_ranks`` table, which keeps its "a"-tagged relation labels
    ahead of its "z"-tagged basis.  ``_reduce`` and ``_insert`` reduce a
    row of either kind in place.

    Pivot rows are stored normalized to leading coefficient 1, so a
    reduction step multiplies but never divides, and integral input stays
    int unless a pivot p is not +-1: ``_normalized`` then scales by
    Fraction(1, p), the one division in the library outside the
    ``dense_rank`` oracle (the kernel pass normalizes through it too).
    """

    def __init__(self):
        self.pivots = {}  # key of the leading label -> normalized row
        self._labels = {}  # repr(label) -> label
        self._position = {}  # repr(label) -> position of the label (``_echelon``)

    def _key(self, label):
        """The repr key of a label; ValueError when another label already
        holds that repr."""
        key = repr(label)
        other = self._labels.setdefault(key, label)
        if other != label:
            raise ValueError(f"labels {other!r} and {label!r} share the repr {key}")
        return key

    def _reduce(self, row):
        """Reduce a row in place against the pivots; returns it."""
        pivots = self.pivots
        while row:
            col = min(row)
            pivot_row = pivots.get(col)
            if pivot_row is None:
                break
            factor = -row[col]
            for k, c in pivot_row.items():
                c = row.get(k, 0) + factor * c
                if c:
                    row[k] = c
                else:
                    del row[k]
        return row

    def _insert(self, row):
        """``_reduce`` a row, then store what survives, normalized, as a
        pivot.  Returns the reduced row."""
        row = self._reduce(row)
        if row:
            col = min(row)
            p = row[col]
            if p != 1:
                row = _normalized(row, p)
            self.pivots[col] = row
        return row


def repr_ranks(labels, keys):
    """(ranks, ordered) for a list of distinct labels and their reprs
    ``keys`` (keys[i] == repr(labels[i]), which the caller may compose
    from the reprs of a label's parts): ``ordered`` is the labels sorted
    by repr, and ranks[i] is the place of labels[i] in it.  An
    ``_Eliminator`` fed rows keyed by these ranks pivots as one fed the
    repr keys of the labels.  ValueError when two labels share a repr."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j]:
            raise ValueError(f"labels {labels[i]!r} and {labels[j]!r} share the repr {keys[i]}")
    ranks = [0] * len(keys)
    for rank, i in enumerate(order):
        ranks[i] = rank
    return ranks, [labels[i] for i in order]


def _normalized(vec, p):
    """vec scaled by the inverse of a pivot p other than 1: negated for
    p = -1, else multiplied by Fraction(1, p), with each integral
    quotient stored as int."""
    if p == -1:
        return {k: -c for k, c in vec.items()}
    return int_first({k: c * Fraction(1, p) for k, c in vec.items()})


def homology_window(cx: Complex, t_min, t_max) -> dict:
    """dim H^t for t in [t_min, t_max]: the number of kernel combos of
    the complex's cleared block d^t, which is dim ker d^t - rank d^{t-1}."""
    return {t: len(cx._block(t)[1]) for t in range(t_min, t_max + 1)}


class HomologyBasis:
    """Representatives of H^t plus exact projection to homology coordinates.

    The representatives z_k are the kernel combos of the complex's cleared
    block d^t, in order: they span a complement of the boundaries in the
    cycles (see ``Complex``).  Coordinates are read off them by three facts:
    - z_k has coefficient 1 at its own label, that of its position
      ``max(combo)``, and no other z_j holds it: a kernel combo holds
      only its own position and those of independent columns before it;
    - no z_k holds a lead of a pivot row of block d^{t-1}, a cleared label;
    - every nonzero boundary holds such a lead, its least-repr label: the
      echelon pass of block t-1 pivots in least-repr order.
    Construction certifies the first two, which make the z_k independent
    modulo the boundaries, on the positions of each combo against the
    lead positions of block t-1, and raises CertificateError with witness z_k
    where one fails.
    """

    def __init__(self, cx: Complex, t):
        self._space, self._t = cx.space, t
        self._cycles = cycles = cx._block(t)[1]
        self._boundaries, _kernel, self._leads = cx._block(t - 1)
        self._own = own = {max(combo): k for k, combo in enumerate(cycles)}
        leads = self._leads.keys()
        self.representatives = []
        for combo in cycles:
            z = cx.space.named(combo)
            if (combo[max(combo)] != 1 or len(own.keys() & combo.keys()) > 1
                    or not leads.isdisjoint(combo)):
                raise CertificateError(
                    "homology representative is not read off the cleared kernel", z)
            self.representatives.append(z)

    @property
    def dim(self):
        return len(self.representatives)

    def coords(self, vec: dict):
        """Homology coordinates of a cycle (boundaries project to zero): the
        residue of vec with the boundary leads cleared, least-repr lead
        first, is sum a_k z_k, a_k its coefficient at the own position of z_k,
        or vec is no cycle.  Worked on the positions of the space."""
        position, degree_at, leads = self._space.position, self._space.degree_at, self._leads
        residue = {}
        for v, c in vec.items():
            if c:
                i = position.get(v)
                if i is None or degree_at[i] != self._t:
                    raise ValueError("vector is not a cycle modulo boundaries")
                residue[i] = c
        position_of, pivots = self._boundaries._position, self._boundaries.pivots
        while hit := [(leads[i], i) for i in residue if i in leads]:
            key, i = min(hit)
            c = residue[i]
            for k, p in pivots[key].items():
                vec_add_term(residue, position_of[k], -c * p)
        own = self._own
        coords = int_first({own[i]: c for i, c in residue.items() if i in own})
        for k, c in coords.items():
            vec_add(residue, self._cycles[k], -c)
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
    image, columns, d_columns = f._image, f.columns, d_source.columns
    for v in range(f.source.dim):
        col = image(d_columns.get(v, {}))
        fv = columns.get(v)
        if fv:
            vec_add(col, d_target._image(fv), -sign)
        if col:
            return f.source.label_at[v], f.target.named(col)
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
