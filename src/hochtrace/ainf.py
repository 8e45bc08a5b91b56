"""A-infinity and C-infinity algebras over a base cdga.

Structure maps are kept in the shifted convention throughout: mu_n maps
(sR)^{(x)n} -> sR and has degree +1 for every n.  The generator space of
an AInfAlgebra is already the shifted space; `from_dga` performs the
shift (labels unchanged, degrees lowered by one).

Tables store values on generator tuples only and extend k-linearly; see
cdga.eval_k_multilinear for the coefficient bookkeeping.
"""
from __future__ import annotations

from itertools import product

from .cdga import (
    BaseCDGA,
    FreeKModule,
    KAlgebra,
    eval_k_multilinear,
    kvec_scale,
)
from .grdlin import ONE, GradedSpace, enumerate_shuffles, koszul_sign, vec_add
from .report import Report


class AInfAlgebra:
    """An A-infinity algebra over a base cdga, truncated at arity N_max.

    ``gens`` is the generator space of sR (shifted degrees).  ``mu`` maps
    arities to tables {generator tuple: kvec}.  Arities above N_max are
    declared zero.  ``unit`` is the generator label of s1, if any.
    """

    def __init__(self, base: BaseCDGA, gens: GradedSpace, mu, n_max,
                 unit=None, cinfty=False, check=True):
        self.base = base
        self.gens = gens
        self.mu = {n: {vs: dict(col) for vs, col in table.items() if col}
                   for n, table in mu.items()}
        self.mu = {n: t for n, t in self.mu.items() if t}
        self.n_max = int(n_max)
        self.unit = unit
        self.cinfty = cinfty
        if any(n > self.n_max for n in self.mu):
            raise ValueError("structure map above the declared truncation arity")
        # building the module validates mu_1^2 = 0 (with the base Leibniz rule);
        # mu tables are keyed by tuples, the module twist by bare labels
        twist = {vs[0]: col for vs, col in self.mu.get(1, {}).items()}
        self.module = FreeKModule(base, gens, twist, check=check)
        if check:
            for n, table in self.mu.items():
                for vs, col in table.items():
                    if len(vs) != n:
                        raise ValueError(f"arity {n} table keyed by {vs!r}")
                    want = 1 + sum(gens.degree[v] for v in vs)
                    for (b, w) in col:
                        if base.degree(b) + gens.degree[w] != want:
                            raise ValueError(
                                f"mu_{n}{vs!r} -> ({b!r},{w!r}) is not degree +1")

    @property
    def is_unital_flagged(self):
        return self.unit is not None

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

    def pair_degree(self, pair):
        b, v = pair
        return self.base.degree(b) + self.gens.degree[v]

    def apply_mu_at(self, pairs, r, s):
        """id^{(x)r} (x) mu_s (x) id^{(x)t} on a tuple of pairs.

        Yields (new_pairs, coefficient); the Koszul sign for moving the
        degree-1 map past the first r factors is included.
        """
        left = sum(self.pair_degree(p) for p in pairs[:r])
        sign = -ONE if left % 2 else ONE
        inner = self.eval_mu(pairs[r:r + s])
        for pair, c in inner.items():
            yield pairs[:r] + (pair,) + pairs[r + s:], sign * c

    def stasheff_defect(self, vs) -> dict:
        """Sum over r+s+t = n of mu_{r+1+t}(id^r (x) mu_s (x) id^t) on gens."""
        n = len(vs)
        pairs = tuple((self.base.unit, v) for v in vs)
        total = {}
        for s in range(1, n + 1):
            for r in range(0, n - s + 1):
                for new_pairs, c in self.apply_mu_at(pairs, r, s):
                    vec_add(total, self.eval_mu(new_pairs), c)
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
        witness = None
        for vs in alg.gen_tuples(n):
            defect = alg.stasheff_defect(vs)
            if defect:
                witness = (vs, defect)
                break
        report.record(f"n={n}", witness is None, witness)
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
    left_ok, right_ok, witness_l, witness_r = True, True, None, None
    for v in alg.gens.labels():
        pv = (base_unit, v)
        got = alg.eval_mu((one, pv))
        if got != {pv: ONE}:
            left_ok, witness_l = False, (v, got)
            break
    for v in alg.gens.labels():
        pv = (base_unit, v)
        got = alg.eval_mu((pv, one))
        unshifted = alg.gens.degree[v] + 1
        want = kvec_scale({pv: ONE}, -ONE if unshifted % 2 else ONE)
        if got != want:
            right_ok, witness_r = False, (v, got)
            break
    report.record("mu_2(s1 (x) sa) = sa", left_ok, witness_l)
    report.record("mu_2(sa (x) s1) = (-1)^{|a|} sa", right_ok, witness_r)
    higher_ok, witness_h = True, None
    for n in sorted(alg.mu):
        if n < 3:
            continue
        for vs in alg.gen_tuples(n):
            if alg.unit not in vs:
                continue
            got = alg.eval_mu(tuple((base_unit, v) for v in vs))
            if got:
                higher_ok, witness_h = False, (n, vs, got)
                break
        if not higher_ok:
            break
    report.record("mu_{n>=3} vanish on s1 slots", higher_ok, witness_h)
    return report


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
            witness = None
            shuffles = enumerate_shuffles(p, q)
            for vs in alg.gen_tuples(n):
                degs = [alg.gens.degree[v] for v in vs]
                total = {}
                for sigma in shuffles:
                    sign = koszul_sign(sigma, degs)
                    permuted = sigma.apply_to(vs)
                    pairs = tuple((alg.base.unit, v) for v in permuted)
                    vec_add(total, alg.eval_mu(pairs), sign)
                if total:
                    witness = (vs, total)
                    break
            report.record(f"(p,q)=({p},{q})", witness is None, witness)
    return report


class AInfMorphism:
    """Components f_n: (sR)^{(x)n} -> sS of degree 0, tables on generators."""

    def __init__(self, source: AInfAlgebra, target: AInfAlgebra, components,
                 n_max=None, check=True):
        if source.base is not target.base and source.base.space != target.base.space:
            raise ValueError("morphism across different bases")
        self.source = source
        self.target = target
        self.components = {n: {vs: dict(col) for vs, col in table.items() if col}
                           for n, table in components.items()}
        self.components = {n: t for n, t in self.components.items() if t}
        self.n_max = n_max if n_max is not None else min(source.n_max, target.n_max)
        if check:
            for n, table in self.components.items():
                for vs, col in table.items():
                    want = sum(source.gens.degree[v] for v in vs)
                    for (b, w) in col:
                        if target.base.degree(b) + target.gens.degree[w] != want:
                            raise ValueError(f"f_{n}{vs!r} is not degree 0")

    @classmethod
    def identity(cls, alg: AInfAlgebra):
        table = {(v,): {(alg.base.unit, v): ONE} for v in alg.gens.labels()}
        return cls(alg, alg, {1: table}, n_max=alg.n_max, check=False)

    @classmethod
    def strict(cls, source, target, f1_table, check=True):
        return cls(source, target, {1: f1_table}, check=check)

    def eval_f(self, pairs) -> dict:
        n = len(pairs)
        table = self.components.get(n)
        if not table:
            return {}
        degs = [self.source.gens.degree[v] for _, v in pairs]
        return eval_k_multilinear(self.source.base, table, 0, pairs, degs)

    def is_strict(self):
        return set(self.components) <= {1}

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
    number of parts)."""
    if parts is None:
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
    total = {}
    for comp in compositions(n):
        for image_tuple, c in f.blocks_apply(pairs, comp):
            vec_add(total, tgt.eval_mu(image_tuple), c)
    for s in range(1, n + 1):
        for r in range(0, n - s + 1):
            for new_pairs, c in src.apply_mu_at(pairs, r, s):
                vec_add(total, f.eval_f(new_pairs), -c)
    return total


def check_morphism(f: AInfMorphism, up_to) -> Report:
    report = Report(f"morphism(up_to={up_to})")
    for n in range(1, up_to + 1):
        witness = None
        for vs in f.source.gen_tuples(n):
            defect = morphism_defect(f, vs)
            if defect:
                witness = (vs, defect)
                break
        report.record(f"n={n}", witness is None, witness)
    return report


def check_unital_morphism(f: AInfMorphism) -> Report:
    report = Report("unital morphism")
    su, tu = f.source.unit, f.target.unit
    if su is None or tu is None:
        report.record("units declared", False)
        return report
    one = (f.source.base.unit, su)
    want = {(f.target.base.unit, tu): ONE}
    report.record("f_1(s1) = s1", f.eval_f((one,)) == want)
    ok, witness = True, None
    for n in sorted(f.components):
        if n < 2:
            continue
        for vs in f.source.gen_tuples(n):
            if su not in vs:
                continue
            got = f.eval_f(tuple((f.source.base.unit, v) for v in vs))
            if got:
                ok, witness = False, (n, vs, got)
                break
        if not ok:
            break
    report.record("f_{n>=2} vanish on s1 slots", ok, witness)
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
    return AInfMorphism(f.source, g.target, tables, n_max=n_max, check=False)


def from_dga(dga: KAlgebra, n_max=None) -> AInfAlgebra:
    """A unital A-infinity algebra from a dga: mu_1(sa) = -s d(a),
    mu_2(sa (x) sb) = (-1)^{|a|} s(a b), higher maps zero."""
    shifted = dga.gens.shifted(1)
    mu1 = {}
    for v, col in dga.module.d_gen.items():
        mu1[(v,)] = kvec_scale(col, -ONE)
    mu2 = {}
    for (x, y), col in dga.mult.items():
        sign = -ONE if dga.gens.degree[x] % 2 else ONE
        mu2[(x, y)] = kvec_scale(col, sign)
    n_max = n_max if n_max is not None else 3
    alg = AInfAlgebra(dga.base, shifted, {1: mu1, 2: mu2}, n_max,
                      unit=dga.unit_gen, cinfty=dga.is_graded_commutative())
    return alg


def strict_from_dga_map(source: AInfAlgebra, target: AInfAlgebra, gen_map) -> AInfMorphism:
    """The strict morphism induced by a dga map given on generators
    (gen_map: source generator -> kvec over the target)."""
    table = {(v,): dict(col) for v, col in gen_map.items() if col}
    return AInfMorphism(source, target, {1: table})


def unit_algebra(base: BaseCDGA, n_max=3) -> AInfAlgebra:
    """The base cdga as a unital A-infinity algebra over itself."""
    from .cdga import base_as_algebra
    return from_dga(base_as_algebra(base), n_max=n_max)


def eta_morphism(alg: AInfAlgebra) -> AInfMorphism:
    """The strict unital map eta: k -> R, s1 -> s1 (Obs 3.2.7, end)."""
    if alg.unit is None:
        raise ValueError("target algebra has no unit")
    source = unit_algebra(alg.base, n_max=alg.n_max)
    table = {("1",): {(alg.base.unit, alg.unit): ONE}}
    return AInfMorphism(source, alg, {1: table}, n_max=alg.n_max)


def to_rational_algebra(alg: AInfAlgebra) -> AInfAlgebra:
    """Collapse the base: the same algebra as an A-infinity algebra over Q.

    The new generator space is the total space k (x) V; its labels are the
    (b, v) pairs of the original module.
    """
    gens = alg.module.total
    rationals = BaseCDGA.rationals()
    mu = {}
    for n in alg.mu:
        table = {}
        for pair_tuple in product(gens.labels(), repeat=n):
            value = alg.eval_mu(pair_tuple)
            if value:
                table[pair_tuple] = {("1", pair): c for pair, c in value.items()}
        if table:
            mu[n] = table
    unit = (alg.base.unit, alg.unit) if alg.unit is not None else None
    return AInfAlgebra(rationals, gens, mu, alg.n_max, unit=unit,
                       cinfty=alg.cinfty, check=False)


def check_all(alg: AInfAlgebra, up_to=None) -> Report:
    """Run every structural validator appropriate to the algebra's flags."""
    up_to = up_to if up_to is not None else alg.n_max
    report = Report("algebra validation")
    report.merge(check_stasheff(alg, min(up_to + 1, alg.n_max + 1)))
    if alg.unit is not None:
        report.merge(check_unital(alg))
    if alg.cinfty:
        report.merge(check_cinfty(alg, up_to))
    return report
