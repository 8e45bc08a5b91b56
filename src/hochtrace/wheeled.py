"""Wheeled trees, the free shifted-C-infinity algebra and the directed
one-loop graph complex.

The biarity-(n,0) part of the wheeled envelope of C-infinity is realized
through its cycle-tree dictionary: a cycle tree is a cyclic tuple of bar
words whose letters are shuffle-reduced rooted trees (the branch
decorations), i.e. the Connes complex of the bar construction of the
free multilinear shifted-C-infinity algebra on n letters.  All signs are
Koszul; d^2 = 0 is asserted by construction.

Tree normal form (the (k-1)!-basis of Q[Sigma_k]/shuffles): at every
vertex the child containing the smallest letter sits in the last slot;
the remaining children are ordered, and distinct orders are distinct
basis elements.  A vertex whose smallest letter sits in child c_j of
c_0 .. c_{k-1} has the closed form of the shuffle antipode
S(v) = (-1)^{|v|} v-reversed (Reutenauer, Free Lie Algebras, 1993):
the sum over the shuffles t of c_0 .. c_{j-1} with c_{k-1} .. c_{j+1}
of (t, c_j), each with coefficient (-1)^{k-1-j} times the Koszul sign
of the move; the exponent counts the children after c_j, not their
degrees.

A tree's support, its set of letters, is a bitmask with bit i for letter
i.  Bases and tables are generated support by support, so a support is
known where a tree is built and is never recomputed from the tree.
"""
from __future__ import annotations

from itertools import accumulate, combinations, pairwise, permutations, product

from .ainf import AInfAlgebra, compositions
from .cdga import BaseCDGA
from .grdlin import (
    GradedSpace,
    HomologyBasis,
    ONE,
    enumerate_shuffles,
    koszul_sign,
    permute,
    vec_add,
    vec_add_term,
)
from .hoch import BarConnesComplex

ZERO = 0


# --- shuffle-reduced trees -------------------------------------------------------


def leaf(letter):
    return ("leaf", letter)


def node(children):
    return ("node", tuple(children))


def support(letters) -> int:
    """The bitmask of a set of letters: bit i for letter i."""
    return sum(1 << letter for letter in set(letters))


def tree_degree(tree):
    """Vertices carry degree +1, letters degree -1 (the sC convention on
    degree-zero hair letters)."""
    kind, payload = tree
    if kind == "leaf":
        return -1
    return 1 + sum(tree_degree(child) for child in payload)


def _normalize_children(children, supports, degrees) -> dict:
    """Rewrite a child tuple so the child holding the smallest letter is
    last, by the closed form in the module docstring; ``supports`` and
    ``degrees`` are the children's (disjoint) supports and degrees.
    Returns {child tuple: int coefficient}."""
    k = len(children)
    # the lowest set bit of a support is its smallest letter
    j = min(range(k), key=lambda i: supports[i] & -supports[i])
    if j == k - 1:
        return {children: 1}
    # the children before c_j shuffled with those after it in reverse
    # order, then c_j; ``slots`` sends each original slot to its slot in
    # the term
    front = list(range(j)) + list(range(k - 1, j, -1))
    sign = -1 if (k - 1 - j) % 2 else 1
    out = {}
    for sigma in enumerate_shuffles(j, k - 1 - j):
        slots = [k - 1] * k
        for i, dest in zip(front, sigma):
            slots[i] = dest
        out[permute(slots, children)] = sign * koszul_sign(slots, degrees)
    return out


def normalize_tree(tree):
    """Bring every vertex of a tree to normal form.  Returns ({tree: int
    coefficient}, support, degree); normalizing keeps the last two."""
    kind, payload = tree
    if kind == "leaf":
        return {tree: 1}, 1 << payload, -1
    # normalize children first (multilinear expansion)
    expansions = [((), 1)]
    supports, degrees = [], []
    for child in payload:
        norm, child_support, child_degree = normalize_tree(child)
        supports.append(child_support)
        degrees.append(child_degree)
        expansions = [(acc + (t,), c * q)
                      for acc, c in expansions for t, q in norm.items()]
    supports, degrees = tuple(supports), tuple(degrees)
    out = {}
    for children, coeff in expansions:
        for child_tuple, c in _normalize_children(children, supports, degrees).items():
            vec_add_term(out, node(child_tuple), coeff * c)
    return out, sum(supports), 1 + sum(degrees)


def graft(subtrees, supports, degrees) -> dict:
    """mu_k applied to a tuple of normal trees with the given supports and
    degrees: the new root, normalized."""
    if len(subtrees) < 2:
        raise ValueError("generators have arity >= 2")
    return {node(child_tuple): c
            for child_tuple, c in _normalize_children(subtrees, supports, degrees).items()}


def tree_differential(tree) -> dict:
    """The free-algebra differential: the derivation extending
    d(mu_k) = - sum mu_{r+1+t} o_{r+1} mu_s (1 < s < k).

    Signs: linearize the expression in prefix order (a vertex before its
    children); expanding the vertex at prefix degree P into
    mu_{r+1+t} o_{r+1} mu_s moves the odd inner symbol past the first r
    children, so the term carries (-1)^{P + |c_1| + .. + |c_r| + 1}.

    Only the inner vertex mu_s is normalized (by ``graft``).  The subtree
    it is spliced into keeps its support, so every ancestor stays normal;
    and the child holding the smallest letter stays last at the vertex,
    either itself or inside the inner vertex, which is then last.
    """
    out = {}
    # (path, children, prefix degree of the vertex symbol, the children's
    # supports and degrees)
    entries = []

    def walk(t, path, prefix):
        """Record the vertices of t; return its support and degree."""
        kind, payload = t
        if kind == "leaf":
            return 1 << payload, -1
        supports, degrees = [], []
        entries.append((path, payload, prefix, supports, degrees))
        prefix += 1
        for i, child in enumerate(payload):
            child_support, child_degree = walk(child, path + (i,), prefix)
            supports.append(child_support)
            degrees.append(child_degree)
            prefix += child_degree
        return sum(supports), 1 + sum(degrees)

    walk(tree, (), 0)

    def replace(t, path, value_tree):
        if not path:
            return value_tree
        _kind, payload = t
        i = path[0]
        return node(payload[:i] + (replace(payload[i], path[1:], value_tree),)
                    + payload[i + 1:])

    for path, payload, prefix, supports, degrees in entries:
        k = len(payload)
        for s in range(2, k):
            for r in range(0, k - s + 1):
                exponent = prefix + sum(degrees[:r]) + 1
                sign = -1 if exponent % 2 else 1
                window = slice(r, r + s)
                for inner, c in graft(payload[window], supports[window],
                                      degrees[window]).items():
                    expanded = node(payload[:r] + (inner,) + payload[r + s:])
                    vec_add_term(out, replace(tree, path, expanded), sign * c)
    return out


def trees_by_support(n) -> dict:
    """{support: the shuffle-normal trees with exactly that leaf set} for
    every nonempty support in {1..n}, by size and then lexicographically
    in the letters."""
    out = {}
    for size in range(1, n + 1):
        for letters in combinations(range(1, n + 1), size):
            out[support(letters)] = _trees_on(letters, out)
    return out


def _trees_on(letters, smaller) -> list:
    """The normal trees on ``letters``, from those on smaller supports: a
    root over a set partition, the block of the smallest letter last."""
    if len(letters) == 1:
        return [leaf(letters[0])]
    out = []
    for k in range(2, len(letters) + 1):
        for blocks in _set_partitions(letters, k):
            # the first block holds the smallest letter
            for first, *rest in product(*(smaller[support(b)] for b in blocks)):
                for ordered_rest in permutations(rest):
                    out.append(node(ordered_rest + (first,)))
    return out


def _set_partitions(items, k):
    """Partitions of ``items`` into exactly k nonempty blocks (as tuples of
    sorted tuples, order of blocks canonical by minimum)."""
    items = list(items)
    if k == 1:
        if items:
            yield (tuple(items),)
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    # first goes into a block with some subset of rest
    n = len(rest)
    for mask in range(1 << n):
        block = [first] + [rest[i] for i in range(n) if mask >> i & 1]
        remaining = [rest[i] for i in range(n) if not mask >> i & 1]
        for others in _set_partitions(remaining, k - 1):
            yield (tuple(block),) + others


def _disjoint_supports(available, k):
    """Ordered sequences of k pairwise disjoint nonempty supports inside
    the support ``available``."""
    if k == 0:
        yield ()
        return
    sub = available
    while sub:
        for rest in _disjoint_supports(available & ~sub, k - 1):
            yield (sub,) + rest
        sub = (sub - 1) & available


def free_multilinear_algebra(n) -> AInfAlgebra:
    """The free shifted-C-infinity algebra on n degree-(-1) letters,
    restricted to multilinear words (a genuine A-infinity algebra: zero
    structure maps on overlapping supports)."""
    base = BaseCDGA.rationals()
    trees = trees_by_support(n)
    gens = GradedSpace((t, tree_degree(t)) for group in trees.values() for t in group)
    degree = gens.degree
    mu = {}
    d_table = {}
    for t in gens.labels():
        col = tree_differential(t)
        if col:
            d_table[(t,)] = {("1", t2): c for t2, c in col.items()}
    if d_table:
        mu[1] = d_table
    full = support(range(1, n + 1))
    for k in range(2, n + 1):
        table = {}
        for supports in _disjoint_supports(full, k):
            for combo in product(*(trees[s] for s in supports)):
                value = graft(combo, supports, [degree[t] for t in combo])
                if value:
                    table[combo] = {("1", t2): c for t2, c in value.items()}
        if table:
            mu[k] = table
    return AInfAlgebra(base, gens, mu, n_max=n)


# --- the loop-order-one graph complex ---------------------------------------------


def multilinear_word_tuples(n):
    """The word tuples whose trees' supports partition {1..n}: each ordered
    sequence of k trees on an ordered set partition, cut into nonempty
    words in each of its 2^(k-1) ways."""
    trees = trees_by_support(n)
    full = support(range(1, n + 1))
    for k in range(1, n + 1):
        # word boundaries of each cut, as positions in the tree sequence
        cuts = [list(accumulate(lengths, initial=0)) for lengths in compositions(k)]
        for supports in _disjoint_supports(full, k):
            if sum(supports) != full:
                continue
            for sequence in product(*(trees[s] for s in supports)):
                for bounds in cuts:
                    yield tuple(sequence[a:b] for a, b in pairwise(bounds))


def gc1_complex(n) -> BarConnesComplex:
    """C-infinity-wheel (n, 0) as the multilinear Connes complex of the bar
    of the free algebra (the Lemma-6.4.11 cycle-tree dictionary)."""
    return BarConnesComplex(free_multilinear_algebra(n), n,
                            word_tuples=multilinear_word_tuples(n))


def gc1_homology(n, characters=False):
    """Dimensions of H^k (k = n - #vertices) of the one-loop complex, and
    optionally the traces of the Sigma_n-action on each homology group."""
    cx = gc1_complex(n)
    actions = {perm: _letter_permutation_action(cx, perm)
               for perm in _conjugacy_representatives(n)} if characters else {}
    dims = {}
    out_chars = {}
    for t in range(-(n - 1), 1):
        basis = HomologyBasis(cx.complex, t)
        k = -t
        if basis.dim:
            dims[k] = basis.dim
        if characters and basis.dim:
            out_chars[k] = {}
            for perm, action in actions.items():
                trace = ZERO
                for idx, rep in enumerate(basis.representatives):
                    coords = basis.coords(action(rep))
                    trace += coords.get(idx, ZERO)
                out_chars[k][perm] = trace
    for k in range(0, n):
        dims.setdefault(k, 0)
    if characters:
        return dims, out_chars
    return dims


def _conjugacy_representatives(n):
    """One permutation per cycle type (as one-line tuples, 1-based)."""
    reps = {}
    for p in permutations(range(1, n + 1)):
        # cycle type
        seen = set()
        lengths = []
        for start in range(1, n + 1):
            if start in seen:
                continue
            length = 0
            x = start
            while x not in seen:
                seen.add(x)
                x = p[x - 1]
                length += 1
            lengths.append(length)
        key = tuple(sorted(lengths))
        reps.setdefault(key, p)
    return sorted(reps.values())


def _relabel_tree(tree, perm):
    kind, payload = tree
    if kind == "leaf":
        return leaf(perm[payload - 1])
    return node(tuple(_relabel_tree(c, perm) for c in payload))


def _letter_permutation_action(cx: BarConnesComplex, perm):
    """The Sigma_n-action on the one-loop complex by hair relabeling
    (letters have degree -1... odd: relabeling itself carries no Koszul
    sign beyond tree renormalization), as a function on vectors.  A trace
    reads it only on homology representatives, so each basis label's
    column is computed on first use and kept for this action only."""
    columns = {}

    def column(label):
        b, words = label
        expansions = [((), ONE)]
        for w in words:
            word_exp = [((), ONE)]
            for t in w:
                norm = normalize_tree(_relabel_tree(t, perm))[0]
                word_exp = [(acc + (t2,), c * q)
                            for acc, c in word_exp for t2, q in norm.items()]
            expansions = [(acc + (tuple(wpart),), c * q)
                          for acc, c in expansions for wpart, q in word_exp]
        col = {}
        for new_words, c in expansions:
            tlabel, sign = cx.reduce_label(b, new_words)
            if tlabel is not None:
                vec_add(col, {tlabel: sign * c})
        return col

    def action(vec):
        out = {}
        for label, c in vec.items():
            col = columns.get(label)
            if col is None:
                col = columns[label] = column(label)
            vec_add(out, col, c)
        return out

    return action
