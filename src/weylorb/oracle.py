"""Finite-field brute force: B(F_q)-orbits on G/H for small matrix groups.

Ground truth for the combinatorial layer, in exact pure-Python arithmetic
on flat row-major tuples.  Every subgroup is a stabilizer chain on row
vectors grown by sifting (Sims 1970): a level keeps its generators and
their inverses and the orbit of its base row with a transversal, never a
set of group elements.  Points of G/H are canonical coset labels (the
lexicographically smallest matrix in the coset under row-major order),
found through a chain of H's row stabilizers; H's own chain gives |H|;
each generator's permutation of the points is computed once, and orbits
and the merge structure under each subminimal parabolic P_alpha are
closures over those permutations.  Neither G nor H is enumerated: |G|
and B, H, P_alpha <= G are certified by orbit-stabilizer with Schreier
generators, which grow G ∩ H on one chain of its own.
Orbit sizes fitted to c * q^a * (q-1)^b across several primes give
dimension and rank proxies from which a candidate datum is inferred; RI
and N stay indistinguishable to point counts and are flagged, never
silently resolved.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import chain
from itertools import product as iproduct
from math import isqrt
from numbers import Rational  # hints a fit's Fraction c; fractions loads only for a fit
from typing import NamedTuple

from . import InputError, clip
from .coxeter import RootSystem, build_root_system, keyed_by_simple_root, orbit_closure, rref
# datum and action execute on first attribute access: only inference and
# compare run them
from . import action, datum

__all__ = [
    "DEFAULT_Q_LIST", "CompareReport", "InferredDatum", "MatGroupSpec",
    "OracleError", "OracleReport", "OrbitInfo", "align_reports", "compare",
    "enumerate_orbits", "fit_monomial", "infer_datum", "spec_from_obj",
]

DEFAULT_POINT_CAP = 10**7
DEFAULT_Q_LIST = (5, 7)
#: Largest matrix size k a spec may declare: :func:`_arith` compiles k^3
#: unrolled products, 27 ms at k = 16 but seconds at k = 80.
MAX_DIMENSION = 16
_FIT_EXPONENT_BOUND = 24


class OracleError(InputError, RuntimeError):
    """Bad oracle spec, resource cap hit, or structurally unusable data."""


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@lru_cache(maxsize=None)
def _inv_mod(mat: tuple[tuple[int, ...], ...], q: int) -> tuple[int, ...] | None:
    """Inverse of a matrix mod the prime q, flat row-major, by Gauss-Jordan
    elimination on [mat | 1]; None when mat is singular mod q.  Cached, so
    the inverse the loader computes to refuse a singular generator is the
    one enumeration reads."""
    k = len(mat)
    rows = rref([[x % q for x in row] + [int(i == j) for j in range(k)]
                 for i, row in enumerate(mat)], k, lambda x: pow(x, -1, q), lambda x: x % q)
    return tuple(x for row in rows for x in row[k:]) if len(rows) == k else None


_Arith = namedtuple("_Arith", "k eye mul vmul")


@lru_cache(maxsize=None)
def _arith(k: int, q: int) -> _Arith:
    """Products mod q on flat row-major k x k tuples: mul(a, b) = a·b and
    vmul(v, b) = v·b for a row vector v.  Each body is unrolled and compiled
    once per (k, q), as namedtuple compiles its methods: several times
    faster than a loop of sum() calls."""
    code = ""
    for name, rows in ("mul", k), ("vmul", 1):  # vmul: a is one row vector
        dots = (" + ".join(f"a{i * k + t}*b{t * k + j}" for t in range(k))
                for i in range(rows) for j in range(k))
        code += (f"def {name}(a, b):\n {''.join(f'a{i}, ' for i in range(rows * k))}= a\n"
                 f" {''.join(f'b{i}, ' for i in range(k * k))}= b\n"
                 f" return ({''.join(f'({d}) % {q}, ' for d in dots)})\n")
    space: dict = {}
    exec(code, space)  # the source is built from the integers k and q alone
    eye = tuple(int(i == j) for i in range(k) for j in range(k))
    return _Arith(k, eye, space["mul"], space["vmul"])


class MatGroupSpec(NamedTuple):
    """Generators over F_q for G, its Borel B, the subgroup H, and the
    subminimal parabolics, all as integer matrices taken mod q."""

    name: str
    root_system: str
    q: int
    dimension: int
    g_gens: tuple[tuple[tuple[int, ...], ...], ...]
    b_gens: tuple[tuple[tuple[int, ...], ...], ...]
    h_gens: tuple[tuple[tuple[int, ...], ...], ...]
    parabolics: dict[int, tuple[tuple[tuple[int, ...], ...], ...]]


_SPEC_FIELDS = frozenset({"name", "root_system", "q", "dimension", "generators"})


def _as_matrices(raw, dimension: int, q: int, where: str):
    if type(raw) not in (list, tuple):
        raise OracleError(f"{where}: must be a list of matrices")
    out = []
    for mat in raw:
        if (type(mat) not in (list, tuple) or len(mat) != dimension
                or any(type(row) not in (list, tuple) or len(row) != dimension
                       for row in mat)):
            raise OracleError(f"{where}: matrix is not {dimension}x{dimension}")
        if any(type(x) is not int for row in mat for x in row):
            raise OracleError(f"{where}: matrix entries must be integers")
        reduced = tuple(tuple(x % q for x in row) for row in mat)
        if _inv_mod(reduced, q) is None:
            raise OracleError(f"{where}: singular generator {reduced} mod {q}")
        out.append(reduced)
    if not out:
        raise OracleError(f"{where}: no generators")
    return tuple(out)


def pinned_q(obj: dict) -> int | None:
    """The prime a parsed spec pins, or None for a generic spec.

    Refuses a spec whose top-level fields are missing, unknown or of the
    wrong JSON type, by exact type tests: 11.0 is not the prime 11.
    """
    if type(obj) is not dict:
        raise OracleError("oracle spec must be a JSON object")
    unknown = obj.keys() - _SPEC_FIELDS - {"notes"}
    if unknown:
        raise OracleError(f"unknown spec fields: {sorted(unknown)}")
    missing = _SPEC_FIELDS - obj.keys()
    if missing:
        raise OracleError(f"missing spec fields: {sorted(missing)}")
    for key in ("name", "root_system"):
        if type(obj[key]) is not str:
            raise OracleError(f"spec: {key} must be a string")
    pinned, dim, notes = obj["q"], obj["dimension"], obj.get("notes", [])
    if pinned is not None and type(pinned) is not int:
        raise OracleError("spec: q must be null or an integer")
    if type(dim) is not int or dim < 1:
        raise OracleError("spec: dimension must be an integer >= 1")
    if dim > MAX_DIMENSION:
        raise OracleError(f"spec: dimension {clip(dim)} exceeds the limit {MAX_DIMENSION}")
    if type(notes) is not list or any(type(n) is not str for n in notes):
        raise OracleError("spec: notes must be a list of strings")
    return pinned


def spec_from_obj(obj: dict, q: int) -> MatGroupSpec:
    """Build a spec at the working prime q.

    Files with "q": null are generic (entries reduced mod q); files that
    pin a prime can only be loaded at that prime.  Every field is checked
    with exact type tests, so a malformed spec is refused, never truncated.
    """
    pinned = pinned_q(obj)
    dim = obj["dimension"]
    if dim * q * q >= 2**63:
        raise OracleError(f"q = {q} is too large for dimension {dim}: "
                          "products mod q would overflow 64-bit integers")
    if not _is_prime(q):
        raise OracleError(f"q = {q} is not prime")
    if pinned is not None and pinned != q:
        raise OracleError(
            f"spec {obj['name']!r} is pinned to q = {clip(pinned)}, cannot load at q = {q}")
    gens = obj["generators"]
    if type(gens) is not dict:
        raise OracleError("spec: generators must be an object")
    unknown = gens.keys() - {"G", "B", "H", "P"}
    if unknown:
        raise OracleError(f"unknown generator blocks: {sorted(unknown)}")
    missing = {"G", "B", "H"} - gens.keys()
    if missing:
        raise OracleError(f"missing generator blocks: {sorted(missing)}")
    rs = build_root_system(obj["root_system"])
    g_gens, b_gens, h_gens = (_as_matrices(gens[block], dim, q, f"{block} generators")
                              for block in ("G", "B", "H"))
    raw_parabolics = gens.get("P", {})
    if type(raw_parabolics) is not dict:
        raise OracleError("spec: generators P must be an object keyed by simple root index")
    parabolics = {}
    for alpha, key, mats in keyed_by_simple_root(raw_parabolics, OracleError, "P"):
        if not 1 <= alpha <= rs.rank:
            raise OracleError(f"parabolic index {key} outside 1..{rs.rank}")
        parabolics[alpha] = _as_matrices(mats, dim, q, f"P_{alpha} generators")
    return MatGroupSpec(
        name=obj["name"],
        root_system=obj["root_system"],
        q=q,
        dimension=dim,
        g_gens=g_gens, b_gens=b_gens, h_gens=h_gens,
        parabolics=parabolics,
    )


class _Chain:
    """A stabilizer chain level (Sims 1970; Seress, ch. 4) on row vectors,
    v·g: generators and inverses, the base row's orbit with a transversal,
    and the chain of its stabilizer; the order is the product of the orbit
    lengths down the chain, and no other group element is kept."""

    def __init__(self, base: tuple, arith: _Arith, gens=(), invs=(), order: int = 0):
        self.base, self.arith, self.gens, self.invs = base, arith, [], []
        self.trans = {base: (arith.eye, arith.eye)}  # w -> (u, u^-1), w·u = base
        self.below = None  # the chain of Stab(base); None while that is trivial
        for h in zip(gens, invs):
            self.add(*h, order=order)

    @property
    def order(self) -> int:
        return len(self.trans) * (self.below.order if self.below else 1)

    def add(self, g: tuple, *inv: tuple, order: int = 0) -> None:
        """Extend the group by g, inv's product being g^-1.  g is sifted down
        the chain; a residue other than 1 is adjoined here, its inverse formed
        only then, its orbit closed, and each new Schreier generator
        u_w^-1·h·u_{w·h} sifted into the level below, until `order` if known."""
        k, eye, mul, vmul = self.arith
        level, steps = self, []
        while level is not None and (t := level.trans.get(vmul(level.base, g))):
            if t[0] is not eye:  # only the base's u is 1
                g = mul(g, t[0])
                steps.append(t[1])
            level = level.below
        if level is None and g == eye:
            return
        self.gens.append(g)
        self.invs.append(reduce(mul, steps[::-1] + list(inv)))
        members, old = list(self.trans), len(self.trans)
        for i, x in enumerate(members):  # from x with each h^-1: the pair (x·h^-1, h)
            u, u_inv = self.trans[x]
            for h, h_inv in zip(self.gens, self.invs) if i >= old else ((g, self.invs[-1]),):
                w = vmul(x, h_inv)
                t = self.trans.get(w)
                if t is None:
                    self.trans[w] = mul(h, u), mul(u_inv, h_inv)
                    members.append(w)
                    continue
                if order and self.order == order:
                    return
                s = mul(mul(t[1], h), u)
                if s == eye:
                    continue
                if self.below is None:  # on a base row that s moves
                    j = next(j for j in range(0, k * k, k) if s[j:j + k] != eye[j:j + k])
                    self.below = _Chain(eye[j:j + k], self.arith)
                self.below.add(s, u_inv, h_inv, t[0])


class _Level:
    """One level L of the chain that labels cosets of H: generators, their
    inverses and |L|, with every L-orbit of row vectors met so far and,
    under its minimum mu, the level of Stab_L(mu)."""

    def __init__(self, gens: list, invs: list, order: int, arith: _Arith):
        self.gens, self.invs, self.order, self.arith = gens, invs, order, arith
        self.orbit: dict = {}  # w -> (mu, u): mu its orbit minimum, u in L, w·u = mu
        self.below: dict = {}  # mu -> the _Level of Stab_L(mu)

    def reduce(self, v: tuple) -> tuple:
        """(mu, u): the minimum mu of v's L-orbit and u in L with v·u = mu.
        A new orbit is searched from v for mu; a chain on the base row mu,
        stopped once its order is |L|, gives the transversal, and the level
        below its base Stab_L(mu), of order |L| / |orbit|."""
        if v not in self.orbit:
            orbit = orbit_closure([v], self.gens, self.arith.vmul)
            if len(orbit) == 1:
                self.orbit[v], self.below[v] = (v, self.arith.eye), self
                return self.orbit[v]
            mu = min(orbit)
            chain = _Chain(mu, self.arith, self.gens, self.invs, self.order)
            below = chain.below or _Chain(mu, self.arith)  # no generators: the trivial group
            self.orbit.update((w, (mu, u)) for w, (u, _) in chain.trans.items())
            self.below[mu] = _Level(below.gens, below.invs, self.order // len(orbit), self.arith)
        return self.orbit[v]


def _canon(m: tuple, level: _Level) -> tuple:
    """The lex-minimal (row-major) element of the coset m·H, level the top
    label level, H.  Row i goes to the minimum of its orbit under the level
    L_i fixing rows 0..i-1, by u in L_i, which leaves those rows fixed."""
    k, mul = level.arith.k, level.arith.mul
    for i in range(0, k * k, k):
        if level.order == 1:
            break
        mu, u = level.reduce(m[i:i + k])
        m, level = mul(m, u), level.below[mu]
    return m


class OrbitInfo(NamedTuple):
    representative: str
    size: int


class OracleReport(NamedTuple):
    """One enumeration run at one prime."""

    spec_name: str
    root_system: str
    q: int
    group_order: int
    subgroup_order: int
    point_count: int
    orbits: tuple[OrbitInfo, ...]
    merges: dict[int, tuple[tuple[int, ...], ...]]

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def to_obj(self) -> dict:
        return {
            "spec": self.spec_name,
            "rootSystem": self.root_system,
            "q": self.q,
            "groupOrder": self.group_order,
            "subgroupOrder": self.subgroup_order,
            "pointCount": self.point_count,
            "orbitCount": self.orbit_count,
            "orbits": [o._asdict() for o in self.orbits],
            "merges": {str(a): [list(block) for block in blocks]
                       for a, blocks in sorted(self.merges.items())},
        }

    def lines(self) -> list[str]:
        out = [f"spec {self.spec_name} at q = {self.q}: "
               f"|G| = {self.group_order}, |H| = {self.subgroup_order}, "
               f"{self.point_count} points, {self.orbit_count} B-orbits"]
        for i, o in enumerate(self.orbits):
            out.append(f"  orbit {i}: size {o.size}, representative {o.representative}")
        for a, blocks in sorted(self.merges.items()):
            desc = " | ".join("{" + ",".join(map(str, b)) + "}" for b in blocks)
            out.append(f"  P_{a} classes: {desc}")
        return out


def _flat(mats) -> list[tuple[int, ...]]:
    return [tuple(chain.from_iterable(m)) for m in mats]


def _fmt_matrix(mat: tuple[int, ...], k: int) -> str:
    return "[" + ",".join("[" + ",".join(map(str, mat[i:i + k])) + "]"
                          for i in range(0, k * k, k)) + "]"


def enumerate_orbits(spec: MatGroupSpec,
                     cap: int = DEFAULT_POINT_CAP) -> OracleReport:
    """Enumerate B-orbits on G/H over F_q with canonical coset labels.

    Neither G nor H is enumerated: |H| is the order of H's chain.  The
    Schreier generators t_y^-1 g t_x of the coset BFS (t_x in G, t_x H = x)
    lie in H, as g t_x H = t_y H, and generate G ∩ H, which one chain
    grows in place from the trivial group by sifting them until its order
    is |H|.  So H <= G iff that order reaches |H|, |G| = points * |H|, and
    then b in B or P_alpha is in G iff b·H is a point.  The BFS records
    each G generator's permutation of the points; any other generator's
    is canonicalised once, its image of H deciding its membership, and
    orbits are closures over the permutations.  The cap bounds |H| and,
    while the BFS grows, points * |H|; it does not bound the orbits and
    transversals the chains store.

    Deterministic: cosets are named by their lex-minimal element, orbits
    sorted by (size, representative), merge blocks by first member.
    """
    q, k = spec.q, spec.dimension
    arith = _arith(k, q)
    eye, mul = arith.eye, arith.mul
    # a generator listed twice is one generator, with one permutation
    g_gens = dict(zip(_flat(spec.g_gens), [_inv_mod(g, q) for g in spec.g_gens]))
    h_gens, h_invs = _flat(spec.h_gens), [_inv_mod(h, q) for h in spec.h_gens]
    top = _Level(h_gens, h_invs, _Chain(eye[:k], arith, h_gens, h_invs).order, arith)
    if top.order > cap:
        raise OracleError(f"H exceeds cap {cap}: |H| = {top.order}")

    labels, trans, tinv = [_canon(eye, top)], [eye], [eye]
    index = {labels[0]: 0}
    perms = {g: [] for g in g_gens}  # perms[g][x] is the point g·x
    chain, meet = _Chain(eye[:k], arith), 1  # G ∩ H and its order, grown in place
    frontier = range(1)
    while frontier:
        for x, (g, g_inv) in iproduct(frontier, g_gens.items()):
            prod = mul(g, trans[x])
            label = _canon(prod, top)
            y = index.setdefault(label, len(labels))
            perms[g].append(y)
            if y == len(labels):  # a tree edge: its Schreier generator is 1
                if (y + 1) * top.order > cap:
                    raise OracleError(f"G exceeds cap {cap}: points x |H| "
                                      f"reached {(y + 1) * top.order}")
                labels.append(label)
                trans.append(prod)
                tinv.append(mul(tinv[x], g_inv))
            elif meet < top.order:  # once |G ∩ H| = |H|, no generator is read
                chain.add(mul(tinv[y], prod), tinv[x], g_inv, trans[y], order=top.order)
                meet = chain.order
        frontier = range(frontier.stop, len(labels))
    if meet != top.order:
        raise OracleError("H is not contained in the group generated by G")

    blocks = [("B", spec.b_gens)] + [(f"P_{a}", m) for a, m in spec.parabolics.items()]
    for name, mats in blocks:
        for b in _flat(mats):
            if b not in perms:
                perms[b] = [index.get(_canon(mul(b, t), top)) for t in trans]
            if perms[b][0] is None:  # H <= G: b in G iff b·H is a point
                raise OracleError(f"{name} is not contained in the group generated by G")

    def orbits_under(mats) -> list[list[int]]:
        lists, seen, out = [perms[b] for b in _flat(mats)], set(), []
        for i in range(len(labels)):
            if i not in seen:
                out.append(orbit_closure([i], lists, lambda x, p: p[x]))
                seen.update(out[-1])
        return out

    ordered = sorted(orbits_under(spec.b_gens),
                     key=lambda m: (len(m), min(labels[i] for i in m)))
    orbit_of_coset = {i: oi for oi, members in enumerate(ordered) for i in members}
    infos = [OrbitInfo(representative=_fmt_matrix(min(labels[i] for i in m), k),
                       size=len(m)) for m in ordered]
    merges: dict[int, tuple[tuple[int, ...], ...]] = {}
    for alpha, mats in sorted(spec.parabolics.items()):
        blocks = []
        for members in orbits_under(mats):
            block = sorted({orbit_of_coset[i] for i in members})
            if sum(infos[oi].size for oi in block) != len(members):
                raise OracleError(f"P_{alpha} class is not a union of B-orbits")
            blocks.append(tuple(block))
        merges[alpha] = tuple(sorted(blocks))
    return OracleReport(spec_name=spec.name, root_system=spec.root_system,
                        q=q, group_order=len(labels) * top.order,
                        subgroup_order=top.order, point_count=len(labels),
                        orbits=tuple(infos), merges=merges)


def _monomial_exponents(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every (a, b) for which some c > 0 gives size = c q^a (q-1)^b at all
    (q, size) pairs: c = s0 / (q0^a (q0-1)^b) matches size s at q when
    s0 q^a (q-1)^b = s q0^a (q0-1)^b, tested in integers, point by point
    on the pairs left."""
    (q0, s0), bound = points[0], range(_FIT_EXPONENT_BOUND)
    if s0 <= 0:  # c > 0 takes s0 > 0, q0^a (q0-1)^b being positive at a prime
        return []
    hits = list(iproduct(bound, repeat=2))
    for q, s in points[1:]:
        left_a, right_a = [s0 * q**a for a in bound], [s * q0**a for a in bound]
        left_b, right_b = [(q - 1) ** b for b in bound], [(q0 - 1) ** b for b in bound]
        hits = [(a, b) for a, b in hits if left_a[a] * left_b[b] == right_a[a] * right_b[b]]
    return hits


def fit_monomial(points: list[tuple[int, int]]) -> tuple[int, int, Rational] | None:
    """Exponents (a, b) and positive rational c with size = c q^a (q-1)^b.

    Returns None when no monomial matches all (q, size) pairs; raises
    when several monomials do (not enough primes to pin one down).  The
    exponents are tested in integers; only a hit makes c.
    """
    if len(points) < 2:
        raise OracleError("monomial fit needs at least two primes")
    hits = _monomial_exponents(points)
    if not hits:
        return None
    from fractions import Fraction  # only fits make fractions
    q0, s0 = points[0]
    hits = [(a, b, Fraction(s0, q0**a * (q0 - 1) ** b)) for a, b in hits]
    if len(hits) > 1:
        raise OracleError(f"ambiguous monomial fit {hits}; add more primes")
    return hits[0]


class InferredDatum(NamedTuple):
    """A validated datum, what point counts could not decide, and its counts and fits."""

    datum: datum.OrbitDatum
    notes: tuple[str, ...]
    point_counts: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    fits: tuple[tuple[str, tuple[int, int, Rational]], ...]

    def to_obj(self) -> dict:
        return {
            "datum": datum.datum_to_obj(self.datum),
            "confidence": list(self.notes),
            "pointCounts": {name: {str(q): s for q, s in counts}
                            for name, counts in self.point_counts},
            "fits": {name: {"a": a, "b": b, "c": str(c)}
                     for name, (a, b, c) in self.fits},
        }


def _match(colours_a, blocks_a, colours_b, blocks_b, admits=None) -> list[int] | None:
    """Bijection f (f[v] the image of node v) with admits(v, f[v]) for
    every node, by default keeping colours, and mapping each block (label,
    groups of nodes; one label, one group count) of side a onto a block of
    side b, group by group as sets; None if none.  Runs an iterative DFS
    in block-adjacency order; a node's candidates come from the image of a
    block shared with an earlier node, and a block is checked once fully
    mapped."""
    n = len(colours_a)
    if admits is None:
        if Counter(colours_a) != Counter(colours_b):
            return None
        def admits(v: int, w: int) -> bool:
            return colours_a[v] == colours_b[w]
    if (len(colours_b) != n
            or Counter(b[0] for b in blocks_a) != Counter(b[0] for b in blocks_b)):
        return None

    def image(f, label, groups):
        return label, tuple(frozenset(f[v] for v in g) for g in groups)

    def incidence(blocks):  # node -> (label, its group index, groups)
        out = defaultdict(list)
        for label, groups in blocks:
            for gi, group in enumerate(groups):
                for v in group:
                    out[v].append((label, gi, groups))
        return out

    targets = {image(range(n), *block) for block in blocks_b}
    mates, mates_b = incidence(blocks_a), incidence(blocks_b)
    # smallest reachable node first; anchor[u] = (label, gm, m, gu): m reached u
    order, anchor, seen = [], [None] * n, [False] * n
    for root in range(n):
        heap = [] if seen[root] else [root]
        seen[root] = True
        while heap:
            v = heappop(heap)
            order.append(v)
            for label, gv, groups in mates[v]:
                for gu, group in enumerate(groups):
                    for u in group:
                        if not seen[u]:
                            seen[u] = True
                            anchor[u] = (label, gv, v, gu)
                            heappush(heap, u)

    f, used = [-1] * n, set()

    def options(v: int):
        pool = range(n)
        if anchor[v]:
            label, gm, m, gv = anchor[v]
            pool = sorted({w for lb, gb, groups in mates_b[f[m]]
                           if (lb, gb) == (label, gm) for w in groups[gv]})
        return iter([w for w in pool if w not in used and admits(v, w)])

    stack = [options(order[0])] if n else []
    while stack:
        v = order[len(stack) - 1]
        used.discard(f[v])
        for f[v] in stack[-1]:
            if all(image(f, label, groups) in targets for label, _, groups in mates[v]
                   if all(f[u] >= 0 for g in groups for u in g)):
                break
        else:
            f[v] = -1
            stack.pop()
            continue
        used.add(f[v])
        if len(stack) == n:
            return f
        stack.append(options(order[len(stack)]))
    return None if n else f


def align_reports(reports: list[OracleReport]) -> list[OracleReport]:
    """Permute orbit indices so merge partitions agree with the first
    report, each orbit paired with one whose sizes at the two primes admit
    a monomial fit, or by merge structure alone when no such pairing
    exists; refuse if no alignment exists."""
    def blocks(report: OracleReport) -> list:
        return [(alpha, (block,)) for alpha, classes in report.merges.items()
                for block in classes]

    base = reports[0]
    out = [base]
    for rep in reports[1:]:
        perm = None
        if rep.orbit_count == base.orbit_count:
            sizes = iproduct({o.size for o in base.orbits}, {o.size for o in rep.orbits})
            # one monomial or several: an ambiguous fit is a fit
            fit = {(s, t) for s, t in sizes if _monomial_exponents([(base.q, s), (rep.q, t)])}
            for admits in (lambda v, w: (base.orbits[w].size, rep.orbits[v].size) in fit,
                           lambda v, w: True):
                perm = _match(rep.orbits, blocks(rep), base.orbits, blocks(base), admits)
                if perm is not None:
                    break
        if perm is None:
            raise OracleError(
                f"merge structure at q = {rep.q} is not isomorphic to q = {base.q}")
        inverse = sorted(range(len(perm)), key=perm.__getitem__)
        # perm carries the merge classes of rep onto those of base
        out.append(rep._replace(orbits=tuple(rep.orbits[i] for i in inverse),
                                merges=base.merges))
    return out


def infer_datum(reports: list[OracleReport], rs: RootSystem) -> InferredDatum:
    """Turn enumeration runs over several primes into a candidate datum.

    Orbit dims and ranks come from the fitted exponents (dim = a + b,
    rk = b); each cell's kind comes from its merge class's shape: one
    B-orbit is A, two are U when their ranks agree and RI otherwise, three
    are RT when the two lower dims agree and TU otherwise.  Complexity and
    the s-invariant are invisible to point counts and set to 0, with notes.
    Refuses, with :class:`OracleError`, reports that cannot be aligned, an
    orbit whose sizes fit no c q^a (q-1)^b (naming each such orbit and its
    sizes), and a candidate that fails :func:`datum.validate` or the braid
    relations (naming its violations); so a returned datum is validated.
    """
    if len(reports) < 2:
        raise OracleError("infer needs reports for at least two distinct primes")
    qs = [r.q for r in reports]
    if len(set(qs)) != len(qs):
        raise OracleError("infer needs distinct primes")
    for q in qs:
        if q < 5:
            raise OracleError(
                f"q = {q} rejected: small characteristic degenerates the action")
    counts = {r.orbit_count for r in reports}
    if len(counts) != 1:
        raise OracleError(
            f"not polynomial-stable at these primes: orbit counts {sorted(counts)}")
    names = {r.root_system for r in reports}
    if len(names) != 1:
        raise OracleError(f"reports disagree on root system: {sorted(names)}")
    if build_root_system(names.pop()).key != rs.key:
        raise OracleError("reports were produced for a different root system")
    reports = align_reports(list(reports))
    n = reports[0].orbit_count

    notes = ["c and s are invisible to point counts; both set to 0"]
    fits = [fit_monomial([(r.q, r.orbits[i].size) for r in reports]) for i in range(n)]
    if None in fits:
        raise OracleError("; ".join(
            f"orbit {i} fits no size c * q^a * (q-1)^b: "
            + ", ".join(f"{r.orbits[i].size} at q = {r.q}" for r in reports)
            for i, f in enumerate(fits) if f is None))

    dims = [a + b for a, b, _ in fits]
    order = sorted(range(n), key=lambda i: (-dims[i], reports[0].orbits[i].size, i))
    name_of = {pos: f"o{rank + 1}" for rank, pos in enumerate(order)}
    top = max(dims)

    orbits = []
    for pos in order:
        a, b, c = fits[pos]
        orbits.append(datum.Orbit(name_of[pos], dims[pos], 0, b, 0,
                            open=dims[pos] == top))
        notes.append(f"{name_of[pos]}: size(q) = {c} * q^{a} * (q-1)^{b}")

    cells: dict[int, tuple[datum.RaiseCell, ...]] = {}
    for alpha, blocks in sorted(reports[0].merges.items()):
        row = []
        for block in blocks:
            if len(block) > 3:
                raise OracleError(
                    f"P_{alpha} class with {len(block)} B-orbits is out of scope")
            y, *zs = sorted(block, key=lambda i: -dims[i])
            ids = tuple(name_of[i] for i in (y, *zs))
            # the kind by shape alone; validate and braid_check judge it
            if not zs:
                kind = "A"
            elif len(zs) == 1:
                kind = "U" if fits[y][1] == fits[zs[0]][1] else "RI"
            else:
                kind = "RT" if dims[zs[0]] == dims[zs[1]] else "TU"
            seen = datum.KINDS[kind].seen[0]
            if seen != kind:
                notes.append(
                    f"cell alpha {alpha} {{{', '.join(ids)}}}: kind {seen} "
                    "ambiguous (stabilizer connectedness is invisible "
                    f"to point counts); recorded as {kind}")
            row.append(datum.RaiseCell(kind, ids))
        cells[alpha] = tuple(row)

    candidate = datum.OrbitDatum(rs, tuple(orbits), cells)
    violations = datum.validate(candidate).violations or action.braid_check(candidate)
    if violations:
        raise OracleError("inferred datum fails validation: "
                          + "; ".join(v.line() for v in violations))
    point_counts = tuple(
        (name_of[pos], tuple((r.q, r.orbits[pos].size) for r in reports))
        for pos in order)
    fit_rows = tuple((name_of[pos], fits[pos]) for pos in order)
    return InferredDatum(datum=candidate, notes=tuple(notes),
                         point_counts=point_counts, fits=fit_rows)


class CompareReport(NamedTuple):
    match: bool
    lines: tuple[str, ...]


def _structure(d: datum.OrbitDatum) -> tuple[list, list]:
    """One pass over the cells, as point counts see them (``KINDS[kind].seen``).
    Per orbit its colour: its signature (per alpha, the class and seen
    role of its one alpha-cell) and its open flag.  And the cells as blocks
    over orbit positions: one group per seen role.  Cells that do not
    partition the orbits are refused by ``d.involutions``."""
    d.involutions
    rows: list[list] = [[None] * len(d.cells) for _ in d.orbits]
    blocks = []
    for k, (alpha, cells) in enumerate(d.cells.items()):
        for cell in cells:
            kind, roles = datum.KINDS[cell.kind].seen
            groups: dict[str, list[int]] = {}
            for role, m in zip(roles, cell.members):
                i = d.position[m]
                groups.setdefault(role, []).append(i)
                rows[i][k] = (alpha, (kind, role))
            blocks.append(((alpha, kind), tuple(map(tuple, groups.values()))))
    return [(tuple(row), o.open) for row, o in zip(rows, d.orbits)], blocks


def _unmatched(reference: datum.OrbitDatum, candidate: datum.OrbitDatum,
               fits: dict) -> list[str]:
    """Per side, the orbits left over once those of equal (dim, rk) are
    paired in (dim, id) order, with a candidate orbit's fitted size."""
    lines = []
    for side, d, other, sizes in (("reference", reference, candidate, {}),
                                  ("candidate", candidate, reference, fits)):
        spare = Counter((o.dim, o.rk) for o in other.orbits)
        for o in d.orbits:
            spare[o.dim, o.rk] -= 1
            if spare[o.dim, o.rk] < 0:
                size = sizes.get(o.id)
                lines.append(f"unmatched {side} orbit {o.id}: dim {o.dim}, rk {o.rk}" + (
                    "" if size is None else ", size(q) = {2} * q^{0} * (q-1)^{1}".format(*size)))
    return lines


def compare(reference: datum.OrbitDatum, candidate: datum.OrbitDatum, fits=()) -> CompareReport:
    """Isomorphism test of the cell-labeled raise structures.

    Cells are compared as point counts see them, by the class and roles of
    ``KINDS[kind].seen``: RI and N are one class, and RT's z1 and z2 one
    role.  Orbit ids may differ.
    A structure-preserving bijection is searched for, then dim/rk/c/s
    are checked through it.  Lattice data is outside what the oracle
    can see and is not compared.  On an orbit-count mismatch it lists the
    orbits left unpaired by (dim, rk), with a candidate's fitted size from
    ``fits``, pairs (id, (a, b, c)) as in :attr:`InferredDatum.fits`.
    A reference whose cells do not partition the orbits is refused
    (DatumFormatError from ``reference.involutions``) before any of this.
    """
    reference.involutions
    lines: list[str] = []
    if reference.root_system.key != candidate.root_system.key:
        lines.append(f"root system mismatch: {reference.root_system.to_text()} "
                     f"vs {candidate.root_system.to_text()}")
        return CompareReport(match=False, lines=tuple(lines))
    a_ids, b_ids = reference.orbit_ids(), candidate.orbit_ids()
    if len(a_ids) != len(b_ids):
        lines.append(f"orbit count mismatch: {len(a_ids)} vs {len(b_ids)}")
        lines += _unmatched(reference, candidate, dict(fits))
        return CompareReport(match=False, lines=tuple(lines))
    for alpha in sorted(reference.cells):
        ka, kb = (sorted(datum.KINDS[c.kind].seen[0] for c in d.cells.get(alpha, ()))
                  for d in (reference, candidate))
        if ka != kb:
            merged = " and ".join(n for n, kind in datum.KINDS.items() if kind.seen[0] != n)
            lines.append(f"cell kind mismatch at alpha {alpha}: "
                         f"{ka} vs {kb} ({merged} identified)")
    if lines:
        return CompareReport(match=False, lines=tuple(lines))

    perm = _match(*_structure(reference), *_structure(candidate))
    if perm is None:
        lines.append("no structure-preserving bijection of orbits exists")
        return CompareReport(match=False, lines=tuple(lines))

    for ra, dst in zip(reference.orbits, perm):
        rb = candidate.orbits[dst]
        for field in ("dim", "rk", "c", "s"):
            va, vb = getattr(ra, field), getattr(rb, field)
            if va != vb:
                lines.append(f"invariant mismatch: {field}({ra.id}) = {va} "
                             f"vs {field}({rb.id}) = {vb}")
    return CompareReport(match=not lines, lines=tuple(lines))
