"""A-infinity and C-infinity algebras over a base cdga.

Structure maps are kept in the shifted convention throughout: mu_n maps
(sR)^{(x)n} -> sR and has degree +1 for every n.  The generator space of
an AInfAlgebra is already the shifted space; `from_dga` performs the
shift (labels unchanged, degrees lowered by one).

Tables store values on generator tuples only and extend k-linearly; see
cdga.eval_k_multilinear for the coefficient bookkeeping.  Complex
assembly, whose words carry only the unit coefficient, reads the tables
by generator word through ``AInfAlgebra.mu_word``.

``insert_at`` is the one insertion rule on (b, v) pairs, behind the
Stasheff, morphism and bimodule equations; ``flat_tables`` is the one
flattening of tables over the base into tables over Q, behind
``to_rational_algebra`` and ``flatten_morphism``.

The flattening rule: ``flatten(A)`` is A itself over Q, else
``to_rational_algebra(A)``.  HH of ``flatten(A)`` for A over R != Q has
the (b, v) pairs as letters; HH of A itself (over Q, or relative over R)
has bare generators, a letter v standing for (unit, v).  The function
pair ``letter_to_pair`` / ``pair_to_letter`` is the one place that tells
them apart, keyed on the complex's algebra and R (``transfer`` says which
construction uses which).  It reads (b, v) as b times v: the Koszul sign
(b, sv) = (-1)^{|b|} s(bv) matching it with s(bv) in R's own HH is not
applied yet, and belongs in this pair.
"""
from __future__ import annotations

from itertools import product

from .cdga import (
    BaseCDGA,
    FreeKModule,
    KAlgebra,
    base_as_algebra,
    eval_k_multilinear,
    kvec_scale,
    store_tables,
)
from .grdlin import ONE, GradedSpace, enumerate_shuffles, koszul_sign, permute, vec_add
from .report import Report


def insert_at(total, outer, inner, inner_degree, pairs, degs, start, stop, coeff):
    """total += coeff outer(id (x) inner (x) id) on a tuple of (b, v) pairs,
    the inner map eating pairs[start:stop]; moving it past the prefix
    pairs[:start], whose degrees are degs[:start], gives the Koszul sign
    (-1)^{|inner| |prefix|}.

    The one insertion rule on pairs: the Stasheff, morphism and bimodule
    equations all apply it.  ``cdga.insertions`` is its word form, for
    complex assembly.
    """
    if inner_degree % 2 and sum(degs[:start]) % 2:
        coeff = -coeff
    for pair, c in inner(pairs[start:stop]).items():
        vec_add(total, outer(pairs[:start] + (pair,) + pairs[stop:]), coeff * c)


class AInfAlgebra:
    """An A-infinity algebra over a base cdga, truncated at arity N_max.

    ``gens`` is the generator space of sR (shifted degrees).  ``mu`` maps
    arities n to tables {generator n-tuple: kvec of degree +1}, stored and
    checked by ``cdga.store_tables``.  Arities above N_max are declared
    zero.  ``unit`` is the generator label of s1, if any.

    ``arities``: the ascending arities n at which mu_n can be nonzero on
    unit-coefficient generators, the arities of ``mu`` plus 1 whenever the
    module differential has entries.
    """

    def __init__(self, base: BaseCDGA, gens: GradedSpace, mu, n_max, unit=None):
        self.base = base
        self.gens = gens
        self.mu = store_tables(mu, lambda n: (gens.degree,) * n, 1, base, gens.degree)
        self.n_max = int(n_max)
        self.unit = unit
        if any(n > self.n_max for n in self.mu):
            raise ValueError("structure map above the declared truncation arity")
        # building the module validates mu_1^2 = 0 (with the base Leibniz rule);
        # mu tables are keyed by tuples, the module twist by bare labels
        twist = {vs[0]: col for vs, col in self.mu.get(1, {}).items()}
        self.module = FreeKModule(base, gens, twist)
        arities = set(self.mu)
        if self.module.d.columns:
            arities.add(1)
        self.arities = tuple(sorted(arities))

    def mu_word(self, word) -> dict:
        """mu_n on a word of unit-coefficient generators, n = len(word):
        the stored column itself, {} where mu_n has none.

        At n = 1 this is d_gen[v], the module differential at (unit, v).
        It equals ``eval_mu`` of the (unit, v) pairs without building them;
        the caller must not mutate the result.
        """
        if len(word) == 1:
            return self.module.d_gen.get(word[0], {})
        table = self.mu.get(len(word))
        return table.get(word, {}) if table else {}

    def eval_mu(self, pairs) -> dict:
        """mu_n on a tuple of total-space labels (b, v); n = len(pairs).

        mu_1 is the full module differential (Leibniz over the base
        differential); the higher maps are strictly k-multilinear.
        """
        n = len(pairs)
        if n == 1:
            return self.module.d.column(pairs[0])
        table = self.mu.get(n)
        if not table:
            return {}
        degs = [self.gens.degree[v] for _, v in pairs]
        return eval_k_multilinear(self.base, table, 1, pairs, degs)

    def gen_tuples(self, n):
        return product(self.gens.labels(), repeat=n)

    def stasheff_defect(self, vs) -> dict:
        """Sum over r+s+t = n of mu_{r+1+t}(id^r (x) mu_s (x) id^t) on gens."""
        n = len(vs)
        pairs = tuple((self.base.unit, v) for v in vs)
        degs = [self.gens.degree[v] for v in vs]
        total = {}
        for s in range(1, n + 1):
            for r in range(0, n - s + 1):
                insert_at(total, self.eval_mu, self.eval_mu, 1, pairs, degs, r, r + s, ONE)
        return total

    def unshifted_maps(self):
        """The classical m_n on R^{(x)n}: a documentation utility.

        m_n = s o mu_n o (s^{-1})^{(x)n}; with shifts as relabelings this
        only introduces the Koszul signs of moving n-1 shift symbols.
        """
        out = {}
        for n, table in self.mu.items():
            rows = {}
            for vs, col in table.items():
                # (n-i)(|a_i|+1) with |a_i| the unshifted degree, i 1-based;
                # |a_i|+1 = (shifted degree) + 2 = shifted degree mod 2.
                exponent = sum(
                    (n - 1 - i) * self.gens.degree[v]
                    for i, v in enumerate(vs)
                )
                rows[vs] = kvec_scale(col, -ONE if exponent % 2 else ONE)
            out[n] = rows
        return out

    def __repr__(self):
        return (f"AInfAlgebra(rank={self.gens.dim}, N_max={self.n_max}, "
                f"arities={sorted(self.mu)})")


def check_stasheff(alg: AInfAlgebra, up_to) -> Report:
    """Evaluate relation (3.2.3.1)-style sums on a full generator basis."""
    report = Report(f"stasheff(up_to={up_to})")
    if up_to > alg.n_max + 1:
        raise ValueError("validator arity exceeds N_max + 1")
    for n in range(1, up_to + 1):
        report.record_first_defect(f"n={n}", alg.gen_tuples(n), alg.stasheff_defect)
    return report


def check_unital(alg: AInfAlgebra) -> Report:
    report = Report("unital")
    if alg.unit is None:
        report.record("unit declared", False, "no unit label")
        return report
    base_unit = alg.base.unit
    one = (base_unit, alg.unit)
    report.record("s1 is a cocycle", not alg.eval_mu((one,)),
                  alg.eval_mu((one,)) or None)

    def left_defect(v):
        pv = (base_unit, v)
        return vec_add(alg.eval_mu((one, pv)), {pv: -1})

    def right_defect(v):
        # want (-1)^{|a|} sa, with |a| = |sa| + 1 the unshifted degree
        pv = (base_unit, v)
        want = -1 if (alg.gens.degree[v] + 1) % 2 else 1
        return vec_add(alg.eval_mu((pv, one)), {pv: -want})

    report.record_first_defect("mu_2(s1 (x) sa) = sa", alg.gens.labels(), left_defect)
    report.record_first_defect("mu_2(sa (x) s1) = (-1)^{|a|} sa", alg.gens.labels(),
                               right_defect)
    report.record_first_defect(
        "mu_{n>=3} vanish on s1 slots", _unit_slot_tuples(alg, alg.mu, 3),
        lambda n_vs: alg.eval_mu(tuple((base_unit, v) for v in n_vs[1])))
    return report


def _unit_slot_tuples(alg: AInfAlgebra, tables, lowest):
    """(n, vs) for each arity n >= lowest of ``tables`` and n-tuple vs with an s1 slot."""
    return ((n, vs) for n in sorted(tables) if n >= lowest
            for vs in alg.gen_tuples(n) if alg.unit in vs)


def check_cinfty(alg: AInfAlgebra, up_to) -> Report:
    """Shuffle-sum vanishing (left action with Koszul signs)."""
    report = Report(f"cinfty(up_to={up_to})")
    if up_to > alg.n_max:
        raise ValueError("validator arity exceeds N_max")
    for n in range(2, up_to + 1):
        if n not in alg.mu:
            report.record(f"n={n} (mu_n = 0)", True)
            continue
        for p in range(1, n):
            q = n - p
            shuffles = enumerate_shuffles(p, q)

            def shuffle_sum(vs):
                degs = [alg.gens.degree[v] for v in vs]
                total = {}
                for sigma in shuffles:
                    sign = koszul_sign(sigma, degs)
                    permuted = permute(sigma, vs)
                    pairs = tuple((alg.base.unit, v) for v in permuted)
                    vec_add(total, alg.eval_mu(pairs), sign)
                return total

            report.record_first_defect(f"(p,q)=({p},{q})", alg.gen_tuples(n), shuffle_sum)
    return report


class AInfMorphism:
    """Components f_n: (sR)^{(x)n} -> sS of degree 0, tables on generators,
    stored and checked by ``cdga.store_tables``."""

    def __init__(self, source: AInfAlgebra, target: AInfAlgebra, components, n_max=None):
        if source.base is not target.base and source.base.space != target.base.space:
            raise ValueError("morphism across different bases")
        self.source = source
        self.target = target
        self.components = store_tables(components, lambda n: (source.gens.degree,) * n, 0,
                                       target.base, target.gens.degree)
        self.n_max = n_max if n_max is not None else min(source.n_max, target.n_max)

    @classmethod
    def identity(cls, alg: AInfAlgebra):
        table = {(v,): {(alg.base.unit, v): ONE} for v in alg.gens.labels()}
        return cls(alg, alg, {1: table}, n_max=alg.n_max)

    def eval_f(self, pairs) -> dict:
        n = len(pairs)
        table = self.components.get(n)
        if not table:
            return {}
        degs = [self.source.gens.degree[v] for _, v in pairs]
        return eval_k_multilinear(self.source.base, table, 0, pairs, degs)

    def blocks_apply(self, pairs, composition):
        """(f_{n_1} (x) ... (x) f_{n_i}) on pairs; no signs (degree 0)."""
        results = [((), ONE)]
        offset = 0
        for size in composition:
            block = pairs[offset:offset + size]
            offset += size
            image = self.eval_f(block)
            results = [
                (acc + (pair,), c * x)
                for acc, c in results
                for pair, x in image.items()
            ]
            if not results:
                return []
        return results


def compositions(n, parts=None):
    """Ordered tuples of positive integers summing to n (optionally a fixed
    number of parts); 0 has one composition, the empty one."""
    if parts is None:
        if not n:
            return [()]
        out = []
        for i in range(1, n + 1):
            out.extend(compositions(n, i))
        return out
    if parts == 1:
        return [(n,)]
    out = []
    for first in range(1, n - parts + 2):
        for rest in compositions(n - first, parts - 1):
            out.append((first,) + rest)
    return out


def morphism_defect(f: AInfMorphism, vs) -> dict:
    """LHS - RHS of the morphism equation (3.2.3.2) on a generator tuple."""
    n = len(vs)
    src, tgt = f.source, f.target
    pairs = tuple((src.base.unit, v) for v in vs)
    degs = [src.gens.degree[v] for v in vs]
    total = {}
    for comp in compositions(n):
        for image_tuple, c in f.blocks_apply(pairs, comp):
            vec_add(total, tgt.eval_mu(image_tuple), c)
    for s in range(1, n + 1):
        for r in range(0, n - s + 1):
            insert_at(total, f.eval_f, src.eval_mu, 1, pairs, degs, r, r + s, -ONE)
    return total


def check_morphism(f: AInfMorphism, up_to) -> Report:
    report = Report(f"morphism(up_to={up_to})")
    for n in range(1, up_to + 1):
        report.record_first_defect(f"n={n}", f.source.gen_tuples(n),
                                   lambda vs: morphism_defect(f, vs))
    return report


def check_unital_morphism(f: AInfMorphism) -> Report:
    report = Report("unital morphism")
    su, tu = f.source.unit, f.target.unit
    if su is None or tu is None:
        report.record("units declared", False)
        return report
    base_unit = f.source.base.unit
    want = {(f.target.base.unit, tu): ONE}
    report.record("f_1(s1) = s1", f.eval_f(((base_unit, su),)) == want)
    report.record_first_defect(
        "f_{n>=2} vanish on s1 slots", _unit_slot_tuples(f.source, f.components, 2),
        lambda n_vs: f.eval_f(tuple((base_unit, v) for v in n_vs[1])))
    return report


def compose_morphisms(g: AInfMorphism, f: AInfMorphism) -> AInfMorphism:
    """(g o f)_n = sum over compositions of g_i o (f_{n_1} (x) ... (x) f_{n_i})."""
    if f.target.gens != g.source.gens:
        raise ValueError("object mismatch in composition")
    n_max = min(f.n_max, g.n_max)
    tables = {}
    for n in range(1, n_max + 1):
        table = {}
        for vs in f.source.gen_tuples(n):
            pairs = tuple((f.source.base.unit, v) for v in vs)
            total = {}
            for comp in compositions(n):
                for image_tuple, c in f.blocks_apply(pairs, comp):
                    vec_add(total, g.eval_f(image_tuple), c)
            if total:
                table[vs] = total
        if table:
            tables[n] = table
    return AInfMorphism(f.source, g.target, tables, n_max=n_max)


def from_dga(dga: KAlgebra, n_max=None) -> AInfAlgebra:
    """A unital A-infinity algebra from a dga: mu_1(sa) = -s d(a),
    mu_2(sa (x) sb) = (-1)^{|a|} s(a b), higher maps zero."""
    shifted = dga.gens.shifted(1)
    mu1 = {}
    for v, col in dga.module.d_gen.items():
        mu1[(v,)] = kvec_scale(col, -1)
    mu2 = {}
    for (x, y), col in dga.mult.items():
        mu2[(x, y)] = kvec_scale(col, -1 if dga.gens.degree[x] % 2 else 1)
    n_max = n_max if n_max is not None else 3
    return AInfAlgebra(dga.base, shifted, {1: mu1, 2: mu2}, n_max, unit=dga.unit_gen)


def unit_algebra(base: BaseCDGA, n_max=3) -> AInfAlgebra:
    """The base cdga as a unital A-infinity algebra over itself."""
    return from_dga(base_as_algebra(base), n_max=n_max)


def eta_morphism(alg: AInfAlgebra) -> AInfMorphism:
    """The strict unital map eta: k -> R, s1 -> s1 (Obs 3.2.7, end)."""
    if alg.unit is None:
        raise ValueError("target algebra has no unit")
    source = unit_algebra(alg.base, n_max=alg.n_max)
    table = {("1",): {(alg.base.unit, alg.unit): ONE}}
    return AInfMorphism(source, alg, {1: table}, n_max=alg.n_max)


def flat_tables(evaluate, labels, arities) -> dict:
    """{n: {label tuple: kvec over Q}} of ``evaluate`` on every n-tuple of
    total-space labels (b, v), for n in ``arities``: a map over the base
    re-expressed over Q on the flattened generators, whose labels are the
    (b, v) pairs.  The one flattening loop, behind ``to_rational_algebra``
    and the flattened v map of ``transfer.TransferReport``."""
    tables = {}
    for n in arities:
        table = {}
        for pair_tuple in product(labels, repeat=n):
            value = evaluate(pair_tuple)
            if value:
                table[pair_tuple] = {("1", pair): c for pair, c in value.items()}
        if table:
            tables[n] = table
    return tables


def to_rational_algebra(alg: AInfAlgebra) -> AInfAlgebra:
    """Collapse the base: the same algebra as an A-infinity algebra over Q.

    The new generator space is the total space k (x) V; its labels are the
    (b, v) pairs of the original module.  Every arity in ``alg.arities``
    is flattened, so mu_1 is the full module differential, the base
    differential included, also where ``alg.mu`` has no arity-1 table.
    """
    gens = alg.module.total
    unit = (alg.base.unit, alg.unit) if alg.unit is not None else None
    return AInfAlgebra(BaseCDGA.rationals(), gens,
                       flat_tables(alg.eval_mu, gens.labels(), alg.arities), alg.n_max,
                       unit=unit)


def flatten(alg: AInfAlgebra) -> AInfAlgebra:
    """``alg`` over Q: itself when its base is Q, else ``to_rational_algebra``."""
    return alg if alg.base.is_rational else to_rational_algebra(alg)


def flatten_morphism(f: AInfMorphism, source: AInfAlgebra,
                     target: AInfAlgebra) -> AInfMorphism:
    """f from ``source`` = flatten(f.source) to ``target`` = flatten(f.target):
    f itself over Q, else f re-expressed on the flattened generators."""
    if f.source.base.is_rational:
        return f
    tables = flat_tables(f.eval_f, source.gens.labels(), range(1, f.n_max + 1))
    return AInfMorphism(source, target, tables, n_max=f.n_max)


def _is_flattening(alg: AInfAlgebra, base: BaseCDGA) -> bool:
    """Whether the HH letters of ``alg`` are (b, v) pairs over R = ``base``."""
    return alg.base.is_rational and not base.is_rational


def letter_to_pair(alg: AInfAlgebra, base: BaseCDGA, letter):
    """The (b, v) pair over ``base`` that an HH letter of ``alg`` stands for."""
    return letter if _is_flattening(alg, base) else (base.unit, letter)


def pair_to_letter(alg: AInfAlgebra, base: BaseCDGA, pair):
    """The HH letter of ``alg`` for a (b, v) pair over ``base``; without
    flattening only b = unit has one."""
    if _is_flattening(alg, base):
        return pair
    if pair[0] != base.unit:
        raise ValueError(f"{pair!r} is no letter of {alg!r}: its coefficient is not the unit")
    return pair[1]
