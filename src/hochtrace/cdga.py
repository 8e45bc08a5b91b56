"""Base cdgas and free modules over them.

The base cdga k is a finite-dimensional graded-commutative unital dga
over Q (Q itself, truncated algebras, cohomology rings).  Free k-modules
are k (x) V for a finite generator space V; their Q-basis is labeled by
pairs (b, v) of a k-basis label and a generator label.  k-multilinear
maps are stored on generator tuples only and extended k-linearly; the
evaluation helpers here implement the coefficient collection

    (b_1 v_1) (x) ... (x) (b_n v_n) = +- (b_1 ... b_n)(v_1 (x) ... (x) v_n)

with Koszul signs, plus the sign (-1)^{|f||b|} for moving an odd map
past the collected coefficient.

``insertions`` is the one insertion and coefficient-migration rule:
every complex assembled from structure maps (Hochschild, bar, bar
Connes, the infinity tensor product) applies id^r (x) f (x) id^t to a
word of unit-coefficient generators through the one enumerator it
builds per construction, which looks f up once per word and arity (a
word's terms are its r = 0 windows plus those of word[1:]), and
``migration_parity`` is the one place its sign is computed.  Those
words never carry a non-unit coefficient, so assembly reads the tables by
generator word (``AInfAlgebra.mu_word``, ``AInfBimodule.mu_word``);
``eval_k_multilinear`` serves the general (b, v) inputs of the
validators, the actions and the transfer layer.

``times_base`` is the one k-linear extension b * column, for a column
keyed (c,) + tail, and ``leibniz_column`` the one Leibniz rule
d(b, tail) = (d_k b, tail) + (-1)^{|b|} b * d(unit, tail): every dg
k-module here (``total_differential``, the Hochschild and bar Connes
complexes, the induced Hochschild maps) builds its unit-coefficient
columns alone and extends them through these two.

``store_tables`` is the one store-and-check routine for the structure-map
tables: every dga over the base (``KAlgebra``), A-infinity algebra,
morphism, bimodule and bimodule map is validated where it is built.
"""
from __future__ import annotations

from .grdlin import Complex, GradedMap, GradedSpace, ONE, int_first, vec_add, vec_add_term

Kvec = dict  # (k_basis_label, gen_label) -> int, or Fraction if not integral


class BaseCDGA:
    """A finite-dimensional graded-commutative unital dga over Q.

    ``mult`` maps basis pairs (a, b) to sparse products {c: coefficient},
    stored through ``int_first``: explicit zeros are dropped and integral
    coefficients become int.  On construction ``_validate`` checks the dga
    rules.  A one-dimensional base is the unit alone, in degree 0, so its
    d is zero by degree and its one rule is 1 * 1 = 1.  Any other base is
    checked by building ``cdga_as_kalgebra(self)``, whose validation
    checks the unit, d(1) = 0, then Leibniz and associativity pair by
    pair; graded commutativity is checked last.
    """

    def __init__(self, space: GradedSpace, d: GradedMap, mult, unit):
        self.space = space
        self.unit = unit
        self.mult = {pair: kept for pair, col in mult.items() if (kept := int_first(col))}
        self.complex = Complex(space, d)
        self.d = d
        if unit not in space.degree or space.degree[unit] != 0:
            raise ValueError("unit must be a degree-0 basis label")
        self._validate()

    @classmethod
    def rationals(cls):
        space = GradedSpace([("1", 0)])
        return cls(space, GradedMap.zero(space, space, 1), {("1", "1"): {"1": ONE}}, "1")

    @property
    def is_rational(self):
        return self.space.dim == 1

    def degree(self, label):
        return self.space.degree[label]

    def mul_basis(self, a, b) -> dict:
        return self.mult.get((a, b), {})

    def mul(self, u: dict, v: dict) -> dict:
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                vec_add(out, self.mul_basis(a, b), ca * cb)
        return out

    def _validate(self):
        if self.is_rational:
            one = self.unit
            if self.mult != {(one, one): {one: ONE}}:
                raise ValueError(f"one-dimensional base without {one!r} * {one!r} = {one!r}")
            return
        cdga_as_kalgebra(self)  # the KAlgebra constructor checks the dga rules
        labels = self.space.labels()
        deg = self.space.degree
        for a in labels:
            for b in labels:
                ab = self.mul_basis(a, b)
                ba = self.mul_basis(b, a)
                sign = -ONE if (deg[a] * deg[b]) % 2 else ONE
                if ab != {c: sign * x for c, x in ba.items()}:
                    raise ValueError(f"not graded-commutative at ({a!r}, {b!r})")

    def __repr__(self):
        return f"BaseCDGA(dim={self.space.dim}, unit={self.unit!r})"


def kvec_scale(vec: Kvec, c) -> Kvec:
    if not c:
        return {}
    return {k: c * x for k, x in vec.items()}


def times_base(base: BaseCDGA, b, column, negate) -> dict:
    """(-1)^negate b * column for a column keyed (c,) + tail, each b * c
    expanded in the base's basis: the one k-linear extension.  For b = unit
    and negate false this is ``column`` itself (the validated unit axiom):
    read it, never mutate it."""
    if b == base.unit and not negate:
        return column
    out = {}
    for key, x in column.items():
        tail = key[1:]
        for b2, q in base.mul_basis(b, key[0]).items():
            vec_add_term(out, (b2,) + tail, -x * q if negate else x * q)
    return out


def leibniz_column(base: BaseCDGA, b, tail, unit_column) -> dict:
    """d((b,) + tail) = ((d_k b,) + tail) + (-1)^{|b|} b * unit_column, given
    the column ``unit_column`` of (unit,) + tail: the one Leibniz rule.  The
    d_k b entries come first; for b = unit (d_k unit = 0) this is
    ``unit_column`` itself: read it, never mutate it."""
    column = times_base(base, b, unit_column, base.degree(b) % 2)
    db = base.d.entries.get(b)
    if not db:
        return column
    return vec_add({(b2,) + tail: c for b2, c in db.items()}, column)


def total_differential(base: BaseCDGA, gens: GradedSpace, d_gen) -> dict:
    """The entries of the total differential of k (x) V on the basis pairs
    (b, v), through ``leibniz_column`` from generator data alone:
    ``d_gen`` maps a generator label to a kvec, the column of (unit, v).
    ``FreeKModule`` and ``transfer.module_flat`` both build their
    differential here."""
    return {(b, v): col for b in base.space.labels() for v in gens.labels()
            if (col := leibniz_column(base, b, (v,), d_gen.get(v, {})))}


class FreeKModule:
    """k (x) V for a finite generator space V, with a k-linear differential.

    ``d_gen`` maps each generator label to a kvec of degree |v| + 1,
    stored through ``int_first`` (zeros dropped, integral coefficients
    int).  Its differential is ``total_differential``; d*d = 0 on the
    total space is asserted on construction.
    """

    def __init__(self, base: BaseCDGA, gens: GradedSpace, d_gen=None):
        self.base = base
        self.gens = gens
        self.d_gen = {v: kept for v, col in (d_gen or {}).items()
                      if (kept := int_first(col))}
        self.total = GradedSpace(
            ((b, v), base.degree(b) + gens.degree[v])
            for b, _ in base.space.basis for v, _ in gens.basis
        )
        self.d = GradedMap(self.total, self.total, 1,
                           total_differential(base, gens, self.d_gen))
        self.complex = Complex(self.total, self.d)

    @property
    def rank(self):
        return self.gens.dim

    def __repr__(self):
        return f"FreeKModule(base_dim={self.base.space.dim}, rank={self.rank})"


def collect_coefficients(base: BaseCDGA, gen_degrees, pairs):
    """Rewrite (b_1 v_1)(x)...(x)(b_n v_n) as +- (b_1...b_n)(v_1(x)...(x)v_n).

    ``gen_degrees``: the degrees |v_i|.  Returns (sign, bvec, vtuple) where
    sign is the int +1 or -1 and bvec is the product of the coefficients in
    k (a sparse dict) -- or None when the product vanishes.

    A slot whose coefficient is ``base.unit`` is skipped: the unit has
    degree 0, so it moves past the v's without a sign, and multiplying by
    it changes nothing (BaseCDGA validates mul_basis(a, unit) == {a: 1}).
    When every slot carries the unit, bvec is {base.unit: 1}.
    """
    unit = base.unit
    exponent = 0
    left = 0
    bvec = {unit: ONE}
    vs = []
    for (b, v), dv in zip(pairs, gen_degrees):
        vs.append(v)
        if b != unit:
            if base.degree(b) % 2:
                exponent += left
            new = {}
            for bb, c in bvec.items():
                for b2, x in base.mul_basis(bb, b).items():
                    vec_add(new, {b2: c * x})
            if not new:
                return 1, None, ()
            bvec = new
        left += dv
    return (-1 if exponent % 2 else 1), bvec, tuple(vs)


def migration_parity(prefix_degree, map_degree, coeff_degree):
    """M (|f| + |c|) mod 2: the Koszul sign of moving a map f past a prefix
    of degree M, then its output coefficient c back past that prefix."""
    return prefix_degree * (map_degree + coeff_degree) % 2


def insertions(base: BaseCDGA, f, arities, degree):
    """The enumerator of id^r (x) f (x) id^t at every window word[r:r+s]
    of a word of generators that all carry the unit coefficient, for each
    width s in ``arities``; one per construction.  f has degree 1, as every
    structure map on shifted generators does.

    ``arities`` lists the widths at which f can be nonzero, ascending and
    without repeats (ValueError otherwise).  ``f`` takes the window as a
    tuple of generator labels (the unit coefficient is implied) and
    returns a kvec, falsy where it does not act; it is read, never
    mutated, so a stored table column will do.  ``degree`` maps a
    generator to |v|.  ``terms(word, prefix_degree=0)`` yields, s
    ascending and then r ascending, (r, word[:r] + (y,) + word[r+s:], c,
    coeff, parity) for each entry (c, y): coeff of f's value, with the
    parity M (1 + |c|) of ``migration_parity`` at M = prefix_degree +
    |word[:r]|, the prefix degree being that of what stands before the
    word.  The caller multiplies the coefficient c into its own.

    A word's terms are memoized without their parity: per arity s, the
    window at r = 0 is one lookup f(word[:s]), and the rest are the terms
    of word[1:] with word[0] prepended, r + 1 and |word[:r]| raised by
    |word[0]|.  The memo lives as long as the enumerator: ``table``
    recurses through its argument, so no closure holds itself in a
    reference cycle that only the cyclic garbage collector would free.
    """
    if any(s >= t for s, t in zip(arities, arities[1:])):
        raise ValueError(f"insertion arities {arities!r} are not ascending and distinct")
    coeff_degree = base.space.degree
    memo = {}

    def table(word, recurse):
        # per arity, the (r, new word, c, coeff, |word[:r]|) of every window
        found = memo.get(word)
        if found is None:
            n = len(word)
            rest = recurse(word[1:], recurse) if arities and n > arities[0] else None
            found = []
            for i, s in enumerate(arities):
                value = f(word[:s]) if n >= s else None
                terms = [(0, (y,) + word[s:], c, coeff, 0)
                         for (c, y), coeff in value.items()] if value else []
                if rest and rest[i]:
                    head, shift = word[:1], degree[word[0]]
                    terms += [(r + 1, head + w, c, coeff, rel + shift)
                              for r, w, c, coeff, rel in rest[i]]
                found.append(terms)
            memo[word] = found
        return found

    def terms(word, prefix_degree=0):
        for per_arity in table(word, table):
            for r, new_word, c, coeff, rel in per_arity:
                yield (r, new_word, c, coeff,
                       migration_parity(prefix_degree + rel, 1, coeff_degree[c]))

    return terms


def eval_k_multilinear(base: BaseCDGA, table, map_degree, pairs, gen_degrees) -> Kvec:
    """Evaluate a k-multilinear map (stored on generator tuples) on full
    basis pairs (b_i, v_i).  Output is a kvec of the target module.

    The generator tuple is looked up first, so a tuple with no table entry
    costs no coefficient collection.  When the collected coefficient is
    {base.unit: 1} with sign +1 -- every slot carries the unit, as in the
    validators' inputs -- the value is the table column itself, copied
    without its zero entries; the unit axiom validated by BaseCDGA makes
    that equal to the general formula.  (Complex assembly, whose inputs
    are all such words, reads the table directly through ``mu_word``.)
    The result is always a fresh dict that the caller may mutate.
    """
    value = table.get(tuple([v for _, v in pairs]))
    if not value:
        return {}
    sign, bvec, _ = collect_coefficients(base, gen_degrees, pairs)
    if bvec is None:
        return {}
    if sign == 1 and len(bvec) == 1 and bvec.get(base.unit) == 1:
        return {key: x for key, x in value.items() if x}
    out = {}
    for b, cb in bvec.items():
        term_sign = sign * cb
        if map_degree % 2 and base.degree(b) % 2:
            term_sign = -term_sign
        for (c, w), x in value.items():
            for bb, y in base.mul_basis(b, c).items():
                vec_add(out, {(bb, w): term_sign * x * y})
    return out


def store_tables(tables, slot_degrees, map_degree, base: BaseCDGA, gen_degree) -> dict:
    """The one store-and-check routine for structure-map tables {shape:
    {generator tuple: kvec}}, behind ``KAlgebra``, ``AInfAlgebra``,
    ``AInfMorphism``, ``AInfBimodule`` and ``BimoduleMap``; returns the
    stored tables.

    Each column is stored through ``int_first``: explicit zeros are dropped
    and integral coefficients become int.  Empty columns and tables are
    dropped.  ``slot_degrees(shape)`` gives one generator-degree dict per
    key slot, so the key width is its length.  Each entry (b, w) of the
    column at a key has degree |b| + ``gen_degree[w]``, which must be
    ``map_degree`` plus the degrees of the key's generators.  A key of the
    wrong width raises ValueError naming the shape and the key; an entry of
    the wrong degree, naming the shape, the key and the entry.
    """
    base_degree = base.space.degree
    stored = {}
    for shape, table in tables.items():
        slots = slot_degrees(shape)
        width = len(slots)
        kept = {}
        for key, col in table.items():
            if len(key) != width:
                raise ValueError(f"map {shape!r} keyed by {key!r}, not by {width} generators")
            col = int_first(col)
            if not col:
                continue
            want = map_degree
            for degree, v in zip(slots, key):
                want += degree[v]
            for b, w in col:
                if base_degree[b] + gen_degree[w] != want:
                    raise ValueError(f"map {shape!r} at {key!r} -> {(b, w)!r} "
                                     f"is not of degree {map_degree}")
            kept[key] = col
        if kept:
            stored[shape] = kept
    return stored


class KAlgebra:
    """A dga over a base cdga, free finite as a k-module, with the unit a
    designated generator.

    ``mult`` is the k-bilinear multiplication on generator pairs (x, y),
    with kvec values of degree |x| + |y|, stored and checked by
    ``store_tables`` as the table of arity 2.  Associativity, Leibniz and
    unitality are checked on generators (k-bilinearity makes that
    sufficient).
    """

    def __init__(self, base: BaseCDGA, gens: GradedSpace, mult, unit_gen, d_gen=None):
        self.module = FreeKModule(base, gens, d_gen)
        self.base = base
        self.gens = gens
        self.mult = store_tables({2: mult}, lambda n: (gens.degree,) * n, 0, base,
                                 gens.degree).get(2, {})
        if isinstance(unit_gen, dict):
            # a general unit kvec (e.g. sum of matrix units for End)
            self.unit_kvec = dict(unit_gen)
            self.unit_gen = None
            if len(self.unit_kvec) == 1:
                (b, v), coeff = next(iter(self.unit_kvec.items()))
                if b == base.unit and coeff == ONE:
                    self.unit_gen = v
        else:
            self.unit_gen = unit_gen
            self.unit_kvec = {(base.unit, unit_gen): ONE}
            if unit_gen not in gens.degree or gens.degree[unit_gen] != 0:
                raise ValueError("unit generator must exist in degree 0")
        self._validate()

    def mul_pairs(self, p1, p2) -> Kvec:
        """Product of two total-space basis elements (b, v): the k-bilinear
        extension of ``mult``, through ``eval_k_multilinear``."""
        degree = self.gens.degree
        return eval_k_multilinear(self.base, self.mult, 0, (p1, p2),
                                  (degree[p1[1]], degree[p2[1]]))

    def mul(self, u: Kvec, v: Kvec) -> Kvec:
        out = {}
        for p1, c1 in u.items():
            for p2, c2 in v.items():
                vec_add(out, self.mul_pairs(p1, p2), c1 * c2)
        return out

    def _validate(self):
        gens = self.gens.labels()
        unit, base, d = self.unit_kvec, self.base, self.module.d
        for x in gens:
            px = (base.unit, x)
            if self.mul(unit, {px: ONE}) != {px: ONE}:
                raise ValueError(f"unit fails on the left of {x!r}")
            if self.mul({px: ONE}, unit) != {px: ONE}:
                raise ValueError(f"unit fails on the right of {x!r}")
        if d(self.unit_kvec):
            raise ValueError("d(1) != 0")
        # each generator pair's product, once, for Leibniz and associativity;
        # by the unit axiom (b w) z = b (w z) and x (b w) = (-1)^{|b||x|} b (x w)
        products = {(x, y): self.mul_pairs((base.unit, x), (base.unit, y))
                    for x in gens for y in gens}
        for x in gens:
            for y in gens:
                px, py = (base.unit, x), (base.unit, y)
                xy = products[x, y]
                got = d(xy)
                expect = self.mul(d.column(px), {py: ONE})
                sign = -ONE if self.gens.degree[x] % 2 else ONE
                vec_add(expect, self.mul({px: ONE}, d.column(py)), sign)
                if got != expect:
                    raise ValueError(f"Leibniz fails at ({x!r}, {y!r})")
                for z in gens:
                    left, right = {}, {}
                    for (b, w), c in xy.items():
                        vec_add(left, times_base(base, b, products[w, z], 0), c)
                    for (b, w), c in products[y, z].items():
                        negate = base.degree(b) * self.gens.degree[x] % 2
                        vec_add(right, times_base(base, b, products[x, w], negate), c)
                    if left != right:
                        raise ValueError(f"not associative at ({x!r}, {y!r}, {z!r})")

    def __repr__(self):
        return f"KAlgebra(rank={self.gens.dim}, base_dim={self.base.space.dim})"


def base_as_algebra(base: BaseCDGA) -> KAlgebra:
    """The base cdga as a dga over itself (one generator, the unit)."""
    gens = GradedSpace([("1", 0)])
    return KAlgebra(base, gens, {("1", "1"): {(base.unit, "1"): ONE}}, "1")


def cdga_as_kalgebra(cdga: BaseCDGA) -> KAlgebra:
    """A finite cdga considered as a dga over Q with its own basis as
    generators (the common fixture case)."""
    rationals = BaseCDGA.rationals()
    mult = {}
    for (a, b), col in cdga.mult.items():
        mult[(a, b)] = {("1", c): x for c, x in col.items()}
    d_gen = {}
    for v in cdga.space.labels():
        col = cdga.d.column(v)
        if col:
            d_gen[v] = {("1", w): c for w, c in col.items()}
    return KAlgebra(rationals, cdga.space, mult, cdga.unit, d_gen)
