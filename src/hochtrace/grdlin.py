"""Exact graded linear algebra over Q.

Graded vector spaces with named basis elements, sparse graded maps,
cochain complexes (differentials of degree +1, d*d = 0 asserted on
construction), Koszul signs for permutations of graded tensor factors,
and windowed homology by exact Gaussian elimination over Fraction.

Conventions: cohomological grading; s^n shifts degrees by -n (so the
shift s lowers degrees by 1).  Shifts are pure relabelings of bases and
carry no signs themselves; all signs live in maps and permutations.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
        return isinstance(other, GradedSpace) and set(self.basis) == set(other.basis)

    def __hash__(self):
        return hash(frozenset(self.basis))

    def __repr__(self):
        return f"GradedSpace(dim={self.dim}, degrees={self.degrees()})"

    def shifted(self, n=1):
        """s^n: same labels, degrees lowered by n (cohomological shift by -n)."""
        return GradedSpace((label, deg - n) for label, deg in self.basis)

    def direct_sum(self, other):
        return GradedSpace(self.basis + other.basis)


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


def vec_add(target: dict, items, coeff=ONE):
    """In-place target += coeff * items, dropping zeros."""
    for label, c in items.items() if isinstance(items, dict) else items:
        value = target.get(label, ZERO) + coeff * c
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


def vec_scale(vec: dict, coeff) -> dict:
    if not coeff:
        return {}
    return {label: coeff * c for label, c in vec.items()}


def vec_degree(space: GradedSpace, vec: dict):
    degs = {space.degree[label] for label in vec}
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous vector, degrees {sorted(degs)}")
    return degs.pop() if degs else None


class GradedMap:
    """A degree-homogeneous linear map given by sparse columns.

    ``entries[src_label]`` is a dict target_label -> Fraction.  Every
    entry must raise degrees by exactly ``degree``.
    """

    __slots__ = ("source", "target", "degree", "entries")

    def __init__(self, source, target, degree, entries, check=True):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.entries = {
            v: {w: frac(c) for w, c in col.items() if c}
            for v, col in entries.items()
            if any(col.values())
        }
        if check:
            for v, col in self.entries.items():
                dv = source.degree[v]
                for w in col:
                    if target.degree[w] != dv + self.degree:
                        raise ValueError(
                            f"entry {v!r} -> {w!r} violates degree {self.degree}"
                        )

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
        return self.scale(Fraction(-1))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        coeff = frac(coeff)
        return GradedMap(self.source, self.target, self.degree,
                         {v: vec_scale(col, coeff) for v, col in self.entries.items()},
                         check=False)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.entries == other.entries)

    def __repr__(self):
        return (f"GradedMap(degree={self.degree}, "
                f"{self.source.dim}->{self.target.dim}, nnz={sum(len(c) for c in self.entries.values())})")

    def transpose_rows(self):
        """Rows of the matrix, indexed by target label."""
        rows = {}
        for v, col in self.entries.items():
            for w, c in col.items():
                rows.setdefault(w, {})[v] = c
        return rows


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


class SignedPermutation:
    """A permutation acting on graded tensor factors with Koszul signs.

    ``perm[i]`` is the destination slot of the factor at slot i, so the
    action matches Def-style left actions: the new tuple holds the old
    factor i at position perm[i].
    """

    __slots__ = ("perm",)

    def __init__(self, perm):
        self.perm = tuple(perm)
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"not a permutation: {perm}")

    def __len__(self):
        return len(self.perm)

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"SignedPermutation{self.perm}"

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def rotation(cls, n):
        """t_n: last factor moved to the front."""
        if n == 0:
            return cls(())
        return cls([(i + 1) % n for i in range(n)])

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self o other: apply other first."""
        return SignedPermutation(self.perm[other.perm[i]] for i in range(len(self)))

    def inverse(self) -> "SignedPermutation":
        inv = [0] * len(self)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return SignedPermutation(inv)

    def apply_to(self, items):
        """Reorder a tuple: result[perm[i]] = items[i]. No sign."""
        out = [None] * len(self)
        for i, x in enumerate(items):
            out[self.perm[i]] = x
        return tuple(out)

    def sign(self, degrees) -> Fraction:
        return koszul_sign(self, degrees)


def koszul_sign(perm: SignedPermutation, degrees) -> Fraction:
    """(-1)^(sum of |x_i||x_j| over pairs i<j that the permutation inverts)."""
    degrees = list(degrees)
    if len(degrees) != len(perm):
        raise ValueError("degree list does not match permutation size")
    exponent = 0
    p = perm.perm
    for i in range(len(p)):
        if degrees[i] % 2 == 0:
            continue
        for j in range(i + 1, len(p)):
            if p[i] > p[j] and degrees[j] % 2:
                exponent += 1
    return -ONE if exponent % 2 else ONE


def rotate_tuple(labels, degrees):
    """One cyclic rotation t (last to front). Returns (new_labels, sign)."""
    if len(labels) <= 1:
        return tuple(labels), ONE
    moved = degrees[-1]
    rest = sum(degrees[:-1])
    sign = -ONE if (moved * rest) % 2 else ONE
    return (labels[-1],) + tuple(labels[:-1]), sign


class Complex:
    """A cochain complex: graded space plus a degree +1 differential.

    d o d = 0 is asserted on construction; failures raise ValueError
    with a witness basis label.
    """

    __slots__ = ("space", "d")

    def __init__(self, space: GradedSpace, d: GradedMap, check=True):
        if d.source != space or d.target != space:
            raise ValueError("differential must be an endomap of the space")
        if d.degree != 1:
            raise ValueError("differential must have degree +1")
        self.space = space
        self.d = d
        if check:
            dd = d.compose(d)
            if not dd.is_zero():
                v = next(iter(dd.entries))
                raise ValueError(f"d*d != 0, witness basis element {v!r}: {dd.entries[v]}")

    def __repr__(self):
        return f"Complex(dim={self.space.dim}, degrees={self.space.degrees()})"

    def d_block(self, t):
        """Rows (indexed by degree-t basis labels) of d restricted to degree t."""
        return [self.d.column(v) for v in self.space.by_degree.get(t, ())]


# ---------------------------------------------------------------------------
# exact elimination


def _col_key(col):
    # deterministic across runs (labels are nested tuples of str/int)
    return repr(col)


def sparse_rank(rows) -> int:
    """Rank of a sparse matrix given as a list of dict rows (destructive copy)."""
    rank = 0
    pivots = {}  # col -> reduced row
    for r in rows:
        row = dict(r)
        while row:
            col = min(row, key=_col_key)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                rank += 1
                break
            vec_add(row, pivot, -row[col] / pivot[col])
    return rank


def dense_rank(matrix) -> int:
    """Rank by dense fraction elimination; independent oracle for sparse_rank."""
    m = [[frac(x) for x in row] for row in matrix]
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


def rank_of_block(mapping: GradedMap, t) -> int:
    rows = [mapping.column(v) for v in mapping.source.by_degree.get(t, ())]
    return sparse_rank(rows)


class _Eliminator:
    """Incremental sparse Gaussian elimination with row-combination tracking."""

    def __init__(self):
        self.pivots = {}  # col -> (row, combo)

    def reduce(self, row, combo=None):
        """Reduce row against pivots in place; returns (row, combo)."""
        while row:
            col = min(row, key=_col_key)
            hit = self.pivots.get(col)
            if hit is None:
                return row, combo
            pivot_row, pivot_combo = hit
            factor = -row[col] / pivot_row[col]
            vec_add(row, pivot_row, factor)
            if combo is not None and pivot_combo is not None:
                vec_add(combo, pivot_combo, factor)
        return row, combo

    def insert(self, row, combo=None):
        """Reduce and insert if independent. Returns surviving (row, combo)."""
        row, combo = self.reduce(row, combo)
        if row:
            col = min(row, key=_col_key)
            self.pivots[col] = (row, combo)
        return row, combo


def kernel_basis(rows):
    """Basis of {x : sum_i x_i * rows[i] = 0}, as dicts over row indices."""
    elim = _Eliminator()
    kernel = []
    for i, r in enumerate(rows):
        row, combo = elim.insert(dict(r), {i: ONE})
        if not row:
            kernel.append(combo)
    return kernel


def solve(rows, rhs):
    """One solution x of sum_i x_i rows[i] = rhs, or None.

    ``rows`` are dict rows; ``rhs`` a dict over the same column labels.
    """
    elim = _Eliminator()
    for i, r in enumerate(rows):
        elim.insert(dict(r), {i: ONE})
    residue, neg_solution = elim.reduce(dict(rhs), {})
    if residue:
        return None
    return {i: -c for i, c in neg_solution.items()}


def homology_window(cx: Complex, t_min, t_max) -> dict:
    """dim H^t for t in [t_min, t_max]: dim ker d^t - rank d^{t-1}."""
    dims = {}
    ranks = {}
    for t in range(t_min - 1, t_max + 1):
        ranks[t] = sparse_rank(cx.d_block(t))
    for t in range(t_min, t_max + 1):
        dim = cx.space.dim_in_degree(t)
        h = dim - ranks[t] - ranks[t - 1]
        dims[t] = h
    return dims


class HomologyBasis:
    """Representatives of H^t plus exact projection to homology coordinates."""

    def __init__(self, cx: Complex, t):
        self.t = t
        labels = cx.space.by_degree.get(t, [])
        cycle_combos = kernel_basis([cx.d.column(v) for v in labels])
        cycles = [{labels[i]: c for i, c in combo.items()} for combo in cycle_combos]
        self._elim = _Eliminator()
        for v in cx.space.by_degree.get(t - 1, ()):
            col = cx.d.column(v)
            if col:
                self._elim.insert(dict(col), {})
        self.representatives = []
        for z in cycles:
            tag = len(self.representatives)
            row, _ = self._elim.insert(dict(z), {tag: ONE})
            if row:
                self.representatives.append(z)

    @property
    def dim(self):
        return len(self.representatives)

    def coords(self, vec: dict):
        """Homology coordinates of a cycle (boundaries project to zero)."""
        residue, neg = self._elim.reduce(dict(vec), {})
        if residue:
            raise ValueError("vector is not a cycle modulo boundaries")
        return {k: -c for k, c in neg.items() if c}


def is_chain_map(f: GradedMap, source: Complex, target: Complex) -> bool:
    return f.compose(source.d) == target.d.compose(f)


def chain_map_defect(f: GradedMap, source: Complex, target: Complex) -> GradedMap:
    return f.compose(source.d) - target.d.compose(f)


def is_quasi_iso_window(f: GradedMap, source: Complex, target: Complex,
                        t_min, t_max) -> bool:
    """True iff the chain map f induces isomorphisms on H^t for all t in window."""
    if not is_chain_map(f, source, target):
        raise ValueError("not a chain map")
    for t in range(t_min, t_max + 1):
        hs = HomologyBasis(source, t)
        ht = HomologyBasis(target, t)
        if hs.dim != ht.dim:
            return False
        rows = []
        for rep in hs.representatives:
            rows.append(ht.coords(f(rep)))
        if sparse_rank(rows) != ht.dim:
            return False
    return True


def induced_map_on_homology(f: GradedMap, source: Complex, target: Complex, t):
    """Matrix of H^t(f), rows indexed by source homology classes."""
    hs = HomologyBasis(source, t)
    ht = HomologyBasis(target, t)
    return [ht.coords(f(rep)) for rep in hs.representatives], hs, ht


def enumerate_shuffles(p, q):
    """All (p,q)-shuffles: destinations of block 1 increasing, likewise block 2."""
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    shuffles = []
    for first_block in combinations(range(p + q), p):
        perm = [0] * (p + q)
        rest = [i for i in range(p + q) if i not in first_block]
        for i, dest in enumerate(first_block):
            perm[i] = dest
        for i, dest in enumerate(rest):
            perm[p + i] = dest
        shuffles.append(SignedPermutation(perm))
    return shuffles
