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
"""
from __future__ import annotations

from .grdlin import Complex, GradedMap, GradedSpace, ONE, frac, vec_add

Kvec = dict  # (k_basis_label, gen_label) -> Fraction


class BaseCDGA:
    """A finite-dimensional graded-commutative unital dga over Q.

    ``mult`` maps basis pairs (a, b) to sparse products {c: coefficient}.
    Associativity, graded commutativity, the Leibniz rule and unitality
    are checked on construction.
    """

    def __init__(self, space: GradedSpace, d: GradedMap, mult, unit, check=True):
        self.space = space
        self.unit = unit
        self.mult = {}
        for (a, b), col in mult.items():
            col = {c: frac(x) for c, x in col.items() if x}
            if col:
                self.mult[(a, b)] = col
        self.complex = Complex(space, d, check=check)
        self.d = d
        if unit not in space.degree or space.degree[unit] != 0:
            raise ValueError("unit must be a degree-0 basis label")
        if check:
            self._validate()

    @classmethod
    def rationals(cls):
        space = GradedSpace([("1", 0)])
        return cls(space, GradedMap.zero(space, space, 1),
                   {("1", "1"): {"1": ONE}}, "1", check=False)

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
        labels = self.space.labels()
        deg = self.space.degree
        for a in labels:
            if self.mul_basis(self.unit, a) != {a: ONE}:
                raise ValueError(f"unit fails on the left of {a!r}")
            if self.mul_basis(a, self.unit) != {a: ONE}:
                raise ValueError(f"unit fails on the right of {a!r}")
        for a in labels:
            for b in labels:
                ab = self.mul_basis(a, b)
                ba = self.mul_basis(b, a)
                sign = -ONE if (deg[a] * deg[b]) % 2 else ONE
                if ab != {c: sign * x for c, x in ba.items()}:
                    raise ValueError(f"not graded-commutative at ({a!r}, {b!r})")
                got = self.d(ab)
                expect = self.mul(self.d.column(a), {b: ONE})
                vec_add(expect, self.mul({a: ONE}, self.d.column(b)),
                        -ONE if deg[a] % 2 else ONE)
                if got != expect:
                    raise ValueError(f"Leibniz fails at ({a!r}, {b!r})")
                for c in labels:
                    left = self.mul(ab, {c: ONE})
                    right = self.mul({a: ONE}, self.mul_basis(b, c))
                    if left != right:
                        raise ValueError(f"not associative at ({a!r}, {b!r}, {c!r})")

    def __repr__(self):
        return f"BaseCDGA(dim={self.space.dim}, unit={self.unit!r})"


def kvec_scale(vec: Kvec, c) -> Kvec:
    if not c:
        return {}
    return {k: c * x for k, x in vec.items()}


class FreeKModule:
    """k (x) V for a finite generator space V, with a k-linear differential.

    ``d_gen`` maps each generator label to a kvec of degree |v| + 1.  The
    total differential is d(b, v) = (d_k b, v) + (-1)^{|b|} b * d_gen(v);
    d*d = 0 on the total space is asserted on construction.
    """

    def __init__(self, base: BaseCDGA, gens: GradedSpace, d_gen=None, check=True):
        self.base = base
        self.gens = gens
        self.d_gen = {v: dict(col) for v, col in (d_gen or {}).items() if col}
        self.total = GradedSpace(
            ((b, v), base.degree(b) + gens.degree[v])
            for b, _ in base.space.basis for v, _ in gens.basis
        )
        entries = {}
        for b in base.space.labels():
            db = base.d.column(b)
            sign = -ONE if base.degree(b) % 2 else ONE
            for v in gens.labels():
                col = {}
                for bb, c in db.items():
                    col[(bb, v)] = c
                for (cb, w), c in self.d_gen.get(v, {}).items():
                    for bb, x in base.mul_basis(b, cb).items():
                        vec_add(col, {(bb, w): sign * c * x})
                if col:
                    entries[(b, v)] = col
        self.d = GradedMap(self.total, self.total, 1, entries)
        self.complex = Complex(self.total, self.d, check=check)

    @property
    def rank(self):
        return self.gens.dim

    def gen_degree(self, v):
        return self.gens.degree[v]

    def unit_pair(self, v):
        """The total-space label of 1_k (x) v."""
        return (self.base.unit, v)

    def include_gen(self, v) -> Kvec:
        return {(self.base.unit, v): ONE}

    def kmul(self, b, vec: Kvec) -> Kvec:
        """Left multiplication by a k-basis element (no sign: coefficients
        are kept leftmost)."""
        out = {}
        for (c, v), x in vec.items():
            for bb, y in self.base.mul_basis(b, c).items():
                vec_add(out, {(bb, v): x * y})
        return out

    def kmul_vec(self, bvec: dict, vec: Kvec) -> Kvec:
        out = {}
        for b, c in bvec.items():
            vec_add(out, self.kmul(b, vec), c)
        return out

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


def eval_k_multilinear(base: BaseCDGA, table, map_degree, pairs, gen_degrees) -> Kvec:
    """Evaluate a k-multilinear map (stored on generator tuples) on full
    basis pairs (b_i, v_i).  Output is a kvec of the target module.

    When the collected coefficient is {base.unit: 1} with sign +1 -- every
    slot carries the unit, as in all complex assembly -- the value is the
    table column itself, copied without its zero entries; the unit axiom
    validated by BaseCDGA makes that equal to the general formula.  The
    result is always a fresh dict that the caller may mutate.
    """
    sign, bvec, vs = collect_coefficients(base, gen_degrees, pairs)
    if bvec is None:
        return {}
    value = table.get(vs)
    if not value:
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


def table_add(target, vtuple, kvec, coeff=ONE):
    """target[vtuple] += coeff * kvec, dropping zero columns."""
    col = target.setdefault(vtuple, {})
    vec_add(col, kvec, coeff)
    if not col:
        target.pop(vtuple, None)
    return target


class KAlgebra:
    """A dga over a base cdga, free finite as a k-module, with the unit a
    designated generator.

    ``mult`` is the k-bilinear multiplication on generator pairs, with
    kvec values.  Associativity, Leibniz and unitality are checked on
    generators (k-bilinearity makes that sufficient).
    """

    def __init__(self, base: BaseCDGA, gens: GradedSpace, mult, unit_gen,
                 d_gen=None, check=True):
        self.module = FreeKModule(base, gens, d_gen, check=check)
        self.base = base
        self.gens = gens
        self.mult = {pair: dict(col) for pair, col in mult.items() if col}
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
        if check:
            self._validate()

    def mul_pairs(self, p1, p2) -> Kvec:
        """Product of two total-space basis elements (b, v)."""
        (a, x), (b, y) = p1, p2
        sign = -ONE if (self.base.degree(b) * self.gens.degree[x]) % 2 else ONE
        out = {}
        for bb, c in self.base.mul_basis(a, b).items():
            for (cc, z), w in self.mult.get((x, y), {}).items():
                for b3, q in self.base.mul_basis(bb, cc).items():
                    vec_add(out, {(b3, z): sign * c * w * q})
        return out

    def mul(self, u: Kvec, v: Kvec) -> Kvec:
        out = {}
        for p1, c1 in u.items():
            for p2, c2 in v.items():
                vec_add(out, self.mul_pairs(p1, p2), c1 * c2)
        return out

    @property
    def unit(self) -> Kvec:
        return dict(self.unit_kvec)

    def _validate(self):
        gens = self.gens.labels()
        unit = self.unit_kvec
        d = self.module.d
        for x in gens:
            px = (self.base.unit, x)
            if self.mul(unit, {px: ONE}) != {px: ONE}:
                raise ValueError(f"unit fails on the left of {x!r}")
            if self.mul({px: ONE}, unit) != {px: ONE}:
                raise ValueError(f"unit fails on the right of {x!r}")
        if d(self.unit_kvec):
            raise ValueError("d(1) != 0")
        for x in gens:
            for y in gens:
                px, py = (self.base.unit, x), (self.base.unit, y)
                xy = self.mul_pairs(px, py)
                got = d(xy)
                expect = self.mul(d.column(px), {py: ONE})
                sign = -ONE if self.gens.degree[x] % 2 else ONE
                vec_add(expect, self.mul({px: ONE}, d.column(py)), sign)
                if got != expect:
                    raise ValueError(f"Leibniz fails at ({x!r}, {y!r})")
                for z in gens:
                    pz = (self.base.unit, z)
                    if self.mul(xy, {pz: ONE}) != self.mul({px: ONE}, self.mul_pairs(py, pz)):
                        raise ValueError(f"not associative at ({x!r}, {y!r}, {z!r})")

    def is_graded_commutative(self) -> bool:
        for x in self.gens.labels():
            for y in self.gens.labels():
                px, py = (self.base.unit, x), (self.base.unit, y)
                sign = -ONE if (self.gens.degree[x] * self.gens.degree[y]) % 2 else ONE
                if self.mul_pairs(px, py) != kvec_scale(self.mul_pairs(py, px), sign):
                    return False
        return True

    def __repr__(self):
        return f"KAlgebra(rank={self.gens.dim}, base_dim={self.base.space.dim})"


def base_as_algebra(base: BaseCDGA) -> KAlgebra:
    """The base cdga as a dga over itself (one generator, the unit)."""
    gens = GradedSpace([("1", 0)])
    return KAlgebra(base, gens, {("1", "1"): {(base.unit, "1"): ONE}}, "1",
                    check=False)


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
    return KAlgebra(rationals, cdga.space, mult, cdga.unit, d_gen, check=False)
