"""Vertex bijections carrying one facet set onto another, and Aut as a stabilizer chain.

The backtracking search assigns vertex images one at a time and checks a
facet's image as soon as all of its vertices are mapped.  When the
complement of a facet is smaller than the facet itself, the complement
family is checked instead (a bijection preserves one family exactly when
it preserves the other).  The one pairwise invariant is the co-family
count pair[u][v], read with the membership counts memb[v].  It decides
the skeleton: of F facets, pair[u][v] hold both u and v on the facet
family and F - memb[u] - memb[v] + pair[u][v] on the complement family,
so no adjacency test is needed.  A vertex's signature is memb[v] with
the multiset of (memb[u], pair[v][u]) over all u (pair[v][v] is 0),
which fixes its skeleton degree.  Every search stops at its first
solution, and every bijection it returns is audited against the two
facet families.

The automorphism group is never enumerated leaf by leaf.  With the
search's vertex order as base b_0, b_1, ..., let G_d be the subgroup
fixing b_0..b_{d-1} pointwise.  The levels are built from the deepest up
(Sims 1970; Seress, *Permutation Group Algorithms*, 2003, ch. 4).  At
level d, a first-solution search with b_0..b_{d-1} fixed and b_d sent to
w runs only for the w that the generators found so far do not reach from
b_d and that share b_d's co-family counts with b_0..b_{d-1} (the search
would reject any other w at depth d).  Each bijection it finds is a
generator in S_d, and the other points of the basic orbit get products
of generators along its breadth-first tree: the transversal T_d.  By
orbit-stabilizer, |Aut| = prod |T_d|, and every automorphism is exactly
one product t_0 t_1 ... with t_d in T_d.
The chain is built once per facet family by :func:`_stabilizer_chain`
and handed to the routines that read it, so a caller keeping it (as
:mod:`shortlinks.symmetry` does, once per complex) never builds it
twice.  :func:`all_automorphism_images` forms each product in C: one
``operator.itemgetter`` per stabilizer element, applied to each
transversal element.  The S_d generate Aut, and
:func:`automorphism_generators` reads them off the chain.
The metric layer keeps one chain per graph (its edges as 2-sets) and
reads it in the cut-cone LP and in the k-gonal search.

Two routines act on any permutations, not only automorphisms:
:func:`orbit_closure` splits a set into orbits under given maps, and
:func:`permutation_group_order` runs the deterministic Schreier–Sims
algorithm on image tuples, so the order of a generated group is read off
a base and strong generating set without listing its elements.

No size guard is kept here: :mod:`shortlinks.symmetry` refuses more than
12 vertices, but the metric layer's chain has none (on a 2-vCPU x86 host,
Q6, the Gosset graph and C101 each take under 0.03 s).  ``first`` recurses
once per vertex, so a family near Python's recursion limit raises
RecursionError.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from operator import itemgetter


class _Instance:
    """Preprocessed facet family of one complex, on vertices 0..N-1."""

    def __init__(self, facets):
        self.verts = sorted(frozenset().union(*facets))
        self.n = len(self.verts)
        idx = {v: i for i, v in enumerate(self.verts)}
        self.idx = idx
        nfac = [frozenset(idx[v] for v in f) for f in facets]
        self.fsize = fsize = len(next(iter(nfac)))
        full = frozenset(range(self.n))
        # keep the mirror family with smaller members: n and fsize decide
        if 0 < self.n - fsize < fsize:
            self.family = [full - f for f in nfac]
        else:
            self.family = nfac
        self.fam_masks = set()
        for f in self.family:
            m = 0
            for v in f:
                m |= 1 << v
            self.fam_masks.add(m)
        memb = [0] * self.n
        pair = [[0] * self.n for _ in range(self.n)]
        for f in self.family:
            for v in f:
                memb[v] += 1
            for a, b in itertools.combinations(f, 2):
                pair[a][b] += 1
                pair[b][a] += 1
        self.memb = memb
        self.pair = pair
        self.sig = [(m, tuple(sorted(zip(memb, row)))) for m, row in zip(memb, pair)]


class _Search:
    """Backtracking from src's family onto dst's, set up once.

    The base ``order`` places, at each step, the unplaced vertex v with the
    greatest (members it completes, memb[v], -v), read from one count per
    member of its unplaced vertices; ``trig[d]`` lists, in family order,
    the members that ``order[d]`` completes.  ``cands[v]`` lists the dst
    vertices whose signature matches src vertex v; :meth:`first` accepts
    any narrowing of those lists, which is how a stabilizer chain fixes a
    prefix of the base without a new set-up.  Sending v to w needs
    pair[v][u] = pair[w][img u] for each mapped u.
    """

    def __init__(self, src: _Instance, dst: _Instance) -> None:
        n, memb, family = src.n, src.memb, src.family
        member_of = [[] for _ in range(n)]
        for i, f in enumerate(family):
            for v in f:
                member_of[v].append(i)
        left = [len(f) for f in family]
        order, trig = [], []
        unplaced = set(range(n))
        while unplaced:
            v = max(unplaced, key=lambda u: (
                [left[i] for i in member_of[u]].count(1), memb[u], -u))
            unplaced.remove(v)
            order.append(v)
            for i in member_of[v]:
                left[i] -= 1
            trig.append([family[i] for i in member_of[v] if not left[i]])
        self.n, self.order, self.trig, self.src, self.dst = n, order, trig, src, dst
        by_sig = defaultdict(list)
        for w in range(n):
            by_sig[dst.sig[w]].append(w)
        self.cands = [by_sig.get(src.sig[v], []) for v in range(n)]

    def first(self, cands):
        """Image tuple (indexed by src vertex) of the first valid bijection
        with every image drawn from ``cands``, or None."""
        n, order, trig = self.n, self.order, self.trig
        src_pair, dst_pair = self.src.pair, self.dst.pair
        dst_masks = self.dst.fam_masks
        img = [-1] * n

        def rec(depth: int, used: int) -> bool:
            if depth == n:
                return True
            v = order[depth]
            pv = src_pair[v]
            mapped = order[:depth]
            for w in cands[v]:
                bit = 1 << w
                if used & bit:
                    continue
                pw = dst_pair[w]
                for u in mapped:
                    if pv[u] != pw[img[u]]:
                        break
                else:
                    img[v] = w
                    for f in trig[depth]:
                        m = 0
                        for u in f:
                            m |= 1 << img[u]
                        if m not in dst_masks:
                            break
                    else:
                        if rec(depth + 1, used | bit):
                            return True
            return False

        return tuple(img) if rec(0, 0) else None


def _compatible(src: _Instance, dst: _Instance) -> bool:
    return (src.n == dst.n
            and src.fsize == dst.fsize
            and len(src.family) == len(dst.family)
            and sorted(src.sig) == sorted(dst.sig))


def find_bijection(facets1, facets2):
    """First vertex bijection carrying facets1 onto facets2, or None."""
    src, dst = _Instance(facets1), _Instance(facets2)
    if not _compatible(src, dst):
        return None
    search = _Search(src, dst)
    images = search.first(search.cands)
    if images is None:
        return None
    _audit(src, dst, images)
    return {src.verts[v]: dst.verts[images[v]] for v in range(src.n)}


def _audit(src: _Instance, dst: _Instance, images) -> None:
    """Check that ``images`` is a bijection carrying src's family onto dst's."""
    masks = set()
    for f in src.family:
        m = 0
        for v in f:
            m |= 1 << images[v]
        masks.add(m)
    if len(set(images)) != src.n or masks != dst.fam_masks:
        raise AssertionError("vertex bijection failed its audit")


def _stabilizer_chain(facets) -> list:
    """Levels (b_0, T_0, S_0), (b_1, T_1, S_1), ... of Aut, built deepest first.

    The base is the search's ``order``.  ``S_d`` lists the generators the
    searches of level d found.  ``T_d`` lists one automorphism for each
    image of ``b_d`` under the pointwise stabilizer of ``b_0..b_{d-1}``,
    the identity first; each is an image tuple of positions in the sorted
    vertex list, indexed by position.
    """
    inst = _Instance(facets)
    search = _Search(inst, inst)
    order = search.order
    rank = {v: d for d, v in enumerate(order)}
    rows = [tuple(row[u] for u in order) for row in inst.pair]  # in base order
    cands = [(v,) for v in range(inst.n)]
    gens, chain = [], []
    for d in reversed(range(inst.n)):
        v, start = order[d], len(gens)
        reps = {v: tuple(range(inst.n))}  # orbit point -> transversal element
        prefix = rows[v][:d]
        for w in search.cands[v]:
            # reached, a fixed base point, or rejected by the search at depth d
            if w in reps or rank[w] < d or rows[w][:d] != prefix:
                continue
            cands[v] = (w,)
            images = search.first(cands)
            if images is None:
                continue
            _audit(inst, inst, images)
            gens.append(images)
            todo = list(reps)  # regrow the orbit breadth first
            for x in todo:
                for s in gens:
                    y = s[x]
                    if y not in reps:
                        reps[y] = _then(reps[x], s)
                        todo.append(y)
        cands[v] = search.cands[v]
        chain.append((v, list(reps.values()), gens[start:]))
    chain.reverse()
    return chain


def automorphism_generators(chain) -> list:
    """The generators on ``chain``, deepest level first, as image tuples.

    Each sends b_d outside the orbit of b_d under the ones before it.
    The generators of levels d and below then generate a subgroup of G_d
    whose orbit of b_d is the whole basic orbit and whose stabilizer of
    b_d contains G_{d+1}, so by orbit-stabilizer they generate G_d itself.
    """
    return [g for _, _, level_gens in reversed(chain) for g in level_gens]


def all_automorphism_images(chain, labels):
    """Yield every automorphism in ``chain`` as a tuple of labels.

    Tuples are indexed by position in the sorted vertex list; the entry
    at position i is ``labels[j]`` for the position j that vertex i is
    sent to.  The pointwise stabilizer of the first base point is built
    as a list of position tuples; its cosets are streamed one transversal
    element at a time, each relabelled once before it is composed.  The
    product t h is ``itemgetter(*h)(t)``, with one getter per stabilizer
    element h.  A facet family has at least 2 vertices, so every getter
    takes at least 2 indices and returns a tuple, not a single entry.
    """
    levels = [level for _, level, _ in chain]
    stabilizer = [levels[0][0]]  # the identity
    for level in reversed(levels[1:]):
        if len(level) > 1:
            getters = [itemgetter(*h) for h in stabilizer]
            stabilizer = [g(t) for t in level for g in getters]
    getters = [itemgetter(*h) for h in stabilizer]
    for t in levels[0]:
        t = itemgetter(*t)(labels)
        yield from [g(t) for g in getters]


def orbit_closure(items, moves) -> list:
    """Orbits of ``items`` under the group generated by the maps ``moves``.

    Each orbit is a list that starts with its first member in ``items``
    order, followed by the images in the order they were reached.  Images
    are not checked against ``items``: a caller whose set may not be
    closed under the maps checks the orbits it gets back.
    """
    seen = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for y in orbit:
            for move in moves:
                z = move(y)
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        orbits.append(orbit)
    return orbits


def _then(a, b) -> tuple:
    """The permutation ``a`` followed by ``b``, as an image tuple."""
    return tuple(map(b.__getitem__, a))


def _inverse(a) -> tuple:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _transversal(base_point, gens, identity) -> dict:
    """Orbit of ``base_point`` under the pairs (s, s^-1) in ``gens``, as
    point -> (u, u^-1) for an element u sending the base point there."""
    reps = {base_point: (identity, identity)}
    todo = [base_point]
    for x in todo:
        u, u_inv = reps[x]
        for s, s_inv in gens:
            y = s[x]
            if y not in reps:
                reps[y] = (_then(u, s), _then(s_inv, u_inv))
                todo.append(y)
    return reps


def permutation_group_order(gens, n: int) -> int:
    """Order of the group generated by the image tuples ``gens`` on range(n).

    Deterministic Schreier–Sims (Sims 1970; Seress 2003, ch. 4): a base
    b_0, b_1, ... and strong generators S_i fixing b_0..b_{i-1} are grown
    until every Schreier generator u_x s u_{s(x)}^-1 of every level sifts
    to the identity; the order is then the product of the basic orbit
    lengths.  Only the generators are read, never the order expected of
    the group.
    """
    identity = tuple(range(n))
    gens = [(g, _inverse(g)) for g in gens if g != identity]
    base = []
    for g, _ in gens:
        if all(g[b] == b for b in base):
            base.append(next(x for x in range(n) if g[x] != x))
    strong = [[(g, g_inv) for g, g_inv in gens
               if all(g[b] == b for b in base[:depth])]
              for depth in range(len(base))]
    trans = [_transversal(b, s, identity) for b, s in zip(base, strong)]

    def sift(g):
        """The residue of ``g`` and the level at which sifting stopped."""
        for depth, b in enumerate(base):
            rep = trans[depth].get(g[b])
            if rep is None:
                return g, depth
            g = _then(g, rep[1])
        return g, len(base)

    def failing_schreier_generator(depth):
        reps = trans[depth]
        for x, (u, _) in reps.items():
            for s, _ in strong[depth]:
                us = _then(u, s)
                v, v_inv = reps[s[x]]
                if us != v:
                    residue, stop = sift(_then(us, v_inv))
                    if stop < len(base) or residue != identity:
                        return residue, stop
        return None

    depth = len(base) - 1
    while depth >= 0:
        failed = failing_schreier_generator(depth)
        if failed is None:
            depth -= 1
            continue
        residue, stop = failed
        if stop == len(base):
            base.append(next(x for x in range(n) if residue[x] != x))
            strong.append([])
            trans.append(None)
        for level in range(depth + 1, stop + 1):
            strong[level].append((residue, _inverse(residue)))
            trans[level] = _transversal(base[level], strong[level], identity)
        depth = stop
    return math.prod(map(len, trans))
