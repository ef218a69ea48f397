"""Finite-field brute force: B(F_q)-orbits on G/H for small matrix groups.

Ground truth for the combinatorial layer, in exact pure-Python arithmetic
on flat row-major tuples.  Points of G/H are canonical coset labels (the
lexicographically smallest matrix in the coset under row-major order),
found through H's pointwise row-stabilizer chain; orbits come from a
search over generator actions, and merge structure under each subminimal
parabolic P_alpha is read off the same way.  G itself is never
enumerated: |G| and the containments B, H, P_alpha <= G are certified by
orbit-stabilizer with Schreier generators.  Orbit sizes fitted to
c * q^a * (q-1)^b across several primes give dimension and rank proxies
from which a candidate datum is inferred; RI and N stay indistinguishable
to point counts and are flagged, never silently resolved.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, namedtuple
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from itertools import product as iproduct
from math import inf, isqrt
from typing import NamedTuple

from .coxeter import RootSystem, build_root_system
from .datum import ROLES, Orbit, OrbitDatum, RaiseCell, datum_to_obj, validate

__all__ = [
    "DEFAULT_Q_LIST", "CompareReport", "InferredDatum", "MatGroupSpec",
    "OracleError", "OracleReport", "OrbitInfo", "align_reports", "compare",
    "enumerate_orbits", "fit_monomial", "infer_datum", "load_spec",
    "spec_from_obj",
]

DEFAULT_POINT_CAP = 10**7
DEFAULT_Q_LIST = (5, 7)
_FIT_EXPONENT_BOUND = 24


class OracleError(RuntimeError):
    """Bad oracle spec, resource cap hit, or structurally unusable data."""


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _det_mod(mat: tuple[tuple[int, ...], ...], q: int) -> int:
    """Determinant mod the prime q by elimination: a pivot row with a
    nonzero first entry clears that column from the other rows."""
    rows = [[x % q for x in row] for row in mat]
    det = 1
    while rows:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            return 0
        pivot = rows.pop(i)
        det = det * pivot[0] * (-1) ** i % q
        inv = pow(pivot[0], -1, q)
        rows = [[(x - row[0] * inv * y) % q for x, y in zip(row[1:], pivot[1:])]
                for row in rows]
    return det


def _inv_mod(mat: tuple[tuple[int, ...], ...], q: int) -> tuple[int, ...]:
    """Inverse of a nonsingular matrix mod the prime q, flat row-major: the
    adjugate over the determinant, each cofactor a determinant by elimination."""
    k, scale = len(mat), pow(_det_mod(mat, q), -1, q)
    return tuple((-1) ** (i + j) * scale * _det_mod(
        [row[:i] + row[i + 1:] for r, row in enumerate(mat) if r != j], q) % q
        for i in range(k) for j in range(k))


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
    fixed_q: bool
    notes: tuple[str, ...] = ()


def _as_matrices(raw, dimension: int, q: int, where: str):
    out = []
    for mat in raw:
        if len(mat) != dimension or any(len(row) != dimension for row in mat):
            raise OracleError(f"{where}: matrix is not {dimension}x{dimension}")
        reduced = tuple(tuple(int(x) % q for x in row) for row in mat)
        if _det_mod(reduced, q) == 0:
            raise OracleError(f"{where}: singular generator {reduced} mod {q}")
        out.append(reduced)
    if not out:
        raise OracleError(f"{where}: no generators")
    return tuple(out)


def spec_from_obj(obj: dict, q: int) -> MatGroupSpec:
    """Build a spec at the working prime q.

    Files with "q": null are generic (entries reduced mod q); files that
    pin a prime can only be loaded at that prime.
    """
    required = {"name", "root_system", "q", "dimension", "generators"}
    unknown = set(obj) - required - {"notes"}
    if unknown:
        raise OracleError(f"unknown spec fields: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise OracleError(f"missing spec fields: {sorted(missing)}")
    dim = int(obj["dimension"])
    if dim * q * q >= 2**63:
        raise OracleError(f"q = {q} is too large for dimension {dim}: "
                          "products mod q would overflow 64-bit integers")
    if not _is_prime(q):
        raise OracleError(f"q = {q} is not prime")
    pinned = obj["q"]
    if pinned is not None and int(pinned) != q:
        raise OracleError(
            f"spec {obj['name']!r} is pinned to q = {pinned}, cannot load at q = {q}")
    gens = obj["generators"]
    unknown = set(gens) - {"G", "B", "H", "P"}
    if unknown:
        raise OracleError(f"unknown generator blocks: {sorted(unknown)}")
    rs = build_root_system(obj["root_system"])
    parabolics = {}
    for key, mats in gens.get("P", {}).items():
        alpha = int(key)
        if not 1 <= alpha <= rs.rank:
            raise OracleError(f"parabolic index {key} outside 1..{rs.rank}")
        parabolics[alpha] = _as_matrices(mats, dim, q, f"P_{alpha} generators")
    return MatGroupSpec(
        name=str(obj["name"]),
        root_system=obj["root_system"],
        q=q,
        dimension=dim,
        g_gens=_as_matrices(gens["G"], dim, q, "G generators"),
        b_gens=_as_matrices(gens["B"], dim, q, "B generators"),
        h_gens=_as_matrices(gens["H"], dim, q, "H generators"),
        parabolics=parabolics,
        fixed_q=pinned is not None,
        notes=tuple(obj.get("notes", ())),
    )


def load_spec(text: str, q: int) -> MatGroupSpec:
    return spec_from_obj(json.loads(text), q)


def _close(group: dict, new: list, gens: list, mul, cap=inf, what="") -> dict:
    """Close the ordered set `group` under right multiplication by gens, in
    BFS layers from the elements `new`; every other element of group must
    already have its products in it."""
    while new:
        fresh = []
        for x in new:
            for g in gens:
                y = mul(x, g)
                if y not in group:
                    group[y] = None
                    fresh.append(y)
        if len(group) > cap:
            raise OracleError(
                f"{what} closure exceeds cap {cap}: reached {len(group)} elements")
        new = fresh
    return group


def _adjoin(group: dict, gens: list, gen, mul) -> dict:
    """Add gen to gens and extend group, the closure of the old gens, to
    the closure of all of them without redoing the old products."""
    gens.append(gen)
    new = [y for y in dict.fromkeys(mul(x, gen) for x in group) if y not in group]
    group.update(dict.fromkeys(new))
    return _close(group, new, gens, mul)


class _Level:
    """One level L of H's pointwise row-stabilizer chain: generators, their
    inverses and |L|, with every L-orbit of row vectors met so far and,
    under its minimum, the level of that minimum's stabilizer."""

    def __init__(self, gens: list, invs: list, order: int, arith: _Arith):
        self.gens, self.invs, self.order, self.arith = gens, invs, order, arith
        self.orbit: dict = {}  # w -> (mu, u): mu its orbit minimum, u in L, w·u = mu
        self.below: dict = {}  # mu -> the _Level of Stab_L(mu)

    def reduce(self, v: tuple) -> tuple:
        """(mu, u): the minimum mu of v's L-orbit and u in L with v·u = mu.
        A new orbit is searched from v for mu, then from mu with the inverse
        generators for u and u^-1; the Schreier generators u_w^-1·h·u_{w·h}
        of Stab_L(mu) are adjoined until its order is |L| / |orbit|."""
        if v not in self.orbit:
            _, eye, mul, vmul = self.arith
            mu = min(_close({v: None}, [v], self.gens, vmul))
            members, trans = [mu], {mu: (eye, eye)}  # w -> (u, u^-1), w·u = mu
            for x in members:
                u, r = trans[x]
                for g, g_inv in zip(self.gens, self.invs):
                    w = vmul(x, g_inv)
                    if w not in trans:
                        trans[w] = mul(g, u), mul(r, g_inv)
                        members.append(w)
            self.orbit.update((w, (mu, u)) for w, (u, _) in trans.items())
            below, order = self, self.order // len(members)
            if order < self.order:
                group, gens, invs = {eye: None}, [], []
                for w, (h, h_inv) in iproduct(members, zip(self.gens, self.invs)):
                    if len(group) == order:
                        break
                    (u, r), (ux, rx) = trans[w], trans[vmul(w, h)]
                    s = mul(mul(r, h), ux)
                    if s not in group:
                        invs.append(mul(mul(rx, h_inv), u))
                        _adjoin(group, gens, s, mul)
                below = _Level(gens, invs, order, self.arith)
            self.below[mu] = below
        return self.orbit[v]


def _canon(m: tuple, level: _Level) -> tuple:
    """The lex-minimal (row-major) element of the coset m·H, level the top
    of H's chain.  Row i goes to the minimum of its orbit under the level
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

    G is never enumerated: the Schreier generators t_y^-1 g t_x of the
    coset BFS (t_x in G, t_x H = x) must lie in H and generate G ∩ H, so
    H <= G iff |G ∩ H| = |H|, |G| = points * |H|, and b in B or P_alpha
    is in G iff b·H is a point y with t_y^-1 b in G ∩ H.  The cap bounds
    |H|, hence every level of H's chain, and, while the BFS grows,
    points * |H|.

    Deterministic: cosets are named by their lex-minimal element, orbits
    sorted by (size, representative), merge blocks by first member.
    """
    q, k = spec.q, spec.dimension
    arith = _arith(k, q)
    eye, mul = arith.eye, arith.mul
    g_gens, h_gens = _flat(spec.g_gens), _flat(spec.h_gens)
    g_inv = [_inv_mod(g, q) for g in spec.g_gens]
    h_all = _close({eye: None}, [eye], h_gens, mul, cap, "H")
    top = _Level(h_gens, [_inv_mod(h, q) for h in spec.h_gens], len(h_all), arith)

    labels, trans, tinv = [_canon(eye, top)], [eye], [eye]
    index = {labels[0]: 0}
    stab, stab_gens = {eye: None}, []
    frontier = range(1)
    while frontier:
        for x, (j, g) in iproduct(frontier, enumerate(g_gens)):
            prod = mul(g, trans[x])
            label = _canon(prod, top)
            y = index.setdefault(label, len(labels))
            if y == len(labels):  # a tree edge: its Schreier generator is 1
                if (y + 1) * len(h_all) > cap:
                    raise OracleError(f"G exceeds cap {cap}: points x |H| "
                                      f"reached {(y + 1) * len(h_all)}")
                labels.append(label)
                trans.append(prod)
                tinv.append(mul(tinv[x], g_inv[j]))
                continue
            gen = mul(tinv[y], prod)
            if gen not in h_all:
                raise OracleError(
                    f"Schreier generator {_fmt_matrix(gen, k)} at point "
                    f"{_fmt_matrix(labels[x], k)}, G generator {j}, is not in H")
            if gen not in stab:
                _adjoin(stab, stab_gens, gen, mul)
        frontier = range(frontier.stop, len(labels))
    if len(stab) != len(h_all):
        raise OracleError("H is not contained in the group generated by G")

    blocks = [("B", spec.b_gens)] + [(f"P_{a}", m) for a, m in spec.parabolics.items()]
    for name, mats in blocks:  # b in G iff b·H = t_y H with t_y^-1 b in G ∩ H
        for b in _flat(mats):
            y = index.get(_canon(b, top))
            if y is None or mul(tinv[y], b) not in stab:
                raise OracleError(f"{name} is not contained in the group generated by G")

    def act(x: int, g: tuple) -> int:  # the point g·x
        return index[_canon(mul(g, labels[x]), top)]

    def orbits_under(mats) -> list[list[int]]:
        gens, seen, out = _flat(mats), set(), []
        for i in range(len(labels)):
            if i not in seen:
                out.append(list(_close({i: None}, [i], gens, act)))
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
                        q=q, group_order=len(labels) * len(stab),
                        subgroup_order=len(h_all), point_count=len(labels),
                        orbits=tuple(infos), merges=merges)


def fit_monomial(points: list[tuple[int, int]]) -> tuple[int, int, Fraction] | None:
    """Exponents (a, b) and positive rational c with size = c q^a (q-1)^b.

    Returns None when no monomial matches all (q, size) pairs; raises
    when several monomials do (not enough primes to pin one down).
    """
    from fractions import Fraction  # only fits make fractions
    if len(points) < 2:
        raise OracleError("monomial fit needs at least two primes")
    q0, s0 = points[0]
    hits = [(a, b, Fraction(s0, q0**a * (q0 - 1) ** b))
            for a, b in iproduct(range(_FIT_EXPONENT_BOUND), repeat=2)]
    hits = [(a, b, c) for a, b, c in hits
            if c > 0 and all(c * q**a * (q - 1) ** b == s for q, s in points[1:])]
    if not hits:
        return None
    if len(hits) > 1:
        raise OracleError(f"ambiguous monomial fit {hits}; add more primes")
    return hits[0]


class InferredDatum(NamedTuple):
    """Candidate datum plus everything point counts could not decide."""

    datum: OrbitDatum | None
    notes: tuple[str, ...]
    point_counts: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    fits: tuple[tuple[str, tuple[int, int, Fraction]], ...]

    def to_obj(self) -> dict:
        return {
            "datum": None if self.datum is None else datum_to_obj(self.datum),
            "confidence": list(self.notes),
            "pointCounts": {name: {str(q): s for q, s in counts}
                            for name, counts in self.point_counts},
            "fits": {name: {"a": a, "b": b, "c": str(c)}
                     for name, (a, b, c) in self.fits},
        }


def _match(colours_a, blocks_a, colours_b, blocks_b) -> list[int] | None:
    """Bijection f (f[v] the image of node v) keeping colours and mapping
    each block (label, groups of nodes; one label, one group count) of side
    a onto a block of side b, group by group as sets; None if none.  Runs
    an iterative DFS in block-adjacency order; a node's candidates come
    from the image of a block shared with an earlier node, and a block is
    checked once fully mapped."""
    n = len(colours_a)
    if (Counter(colours_a) != Counter(colours_b)
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
        return iter([w for w in pool if w not in used and colours_b[w] == colours_a[v]])

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
    """Permute orbit indices within equal-size ties so merge partitions
    agree with the first report; refuse if no alignment exists."""
    def blocks(report: OracleReport) -> list:
        return [(alpha, (block,)) for alpha, classes in report.merges.items()
                for block in classes]

    base = reports[0]
    out = [base]
    for rep in reports[1:]:
        sizes = [o.size for o in rep.orbits]
        perm = (_match(sizes, blocks(rep), sizes, blocks(base))
                if rep.orbit_count == base.orbit_count else None)
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
    rk = b); cell kinds come from merge classes.  Complexity and the
    s-invariant are invisible to point counts and set to 0, with notes.
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
        notes += [f"orbit {i} unclassified: no monomial size fit"
                  for i, f in enumerate(fits) if f is None]
        return InferredDatum(datum=None, notes=tuple(notes),
                             point_counts=(), fits=())

    dims = [a + b for a, b, _ in fits]
    order = sorted(range(n), key=lambda i: (-dims[i], reports[0].orbits[i].size, i))
    name_of = {pos: f"o{rank + 1}" for rank, pos in enumerate(order)}
    top = max(dims)
    if dims.count(top) != 1:
        raise OracleError("open orbit is not unique: top dimension ties")

    orbits = []
    for pos in order:
        a, b, c = fits[pos]
        orbits.append(Orbit(name_of[pos], dims[pos], 0, b, 0,
                            open=dims[pos] == top))
        notes.append(f"{name_of[pos]}: size(q) = {c} * q^{a} * (q-1)^{b}")

    cells: dict[int, list[RaiseCell]] = {}
    for alpha, blocks in sorted(reports[0].merges.items()):
        row: list[RaiseCell] = []
        for block in blocks:
            members = sorted(block, key=lambda i: -dims[i])
            ids = [name_of[i] for i in members]
            if len(block) == 1:
                row.append(RaiseCell(alpha, "A", y=ids[0]))
            elif len(block) == 2:
                hi, lo = members
                if dims[hi] == dims[lo]:
                    raise OracleError(
                        f"P_{alpha} pair with equal dims {ids}: not a raise")
                bh, bl = fits[hi][1], fits[lo][1]
                if bh == bl:
                    row.append(RaiseCell(alpha, "U", y=ids[0], z=ids[1]))
                elif bh - bl == 1:
                    row.append(RaiseCell(alpha, "RI", y=ids[0], z=ids[1]))
                    notes.append(
                        f"cell alpha {alpha} {{{ids[0]}, {ids[1]}}}: kind RI|N "
                        "ambiguous (stabilizer connectedness is invisible "
                        "to point counts); recorded as RI")
                else:
                    raise OracleError(
                        f"P_{alpha} pair {ids}: rank proxies differ by {bh - bl}")
            elif len(block) == 3:
                y, z1, z2 = members
                if dims[z1] == dims[z2]:
                    row.append(RaiseCell(alpha, "RT", y=ids[0],
                                         z1=ids[1], z2=ids[2]))
                elif dims[y] > dims[z1] > dims[z2]:
                    row.append(RaiseCell(alpha, "TU", y=ids[0],
                                         z1=ids[1], z2=ids[2]))
                else:
                    raise OracleError(
                        f"P_{alpha} triple {ids}: dims {dims[y]},{dims[z1]},"
                        f"{dims[z2]} fit neither RT nor TU")
            else:
                raise OracleError(
                    f"P_{alpha} class with {len(block)} B-orbits is out of scope")
        cells[alpha] = row

    datum = OrbitDatum(rs, tuple(orbits),
                       {a: tuple(row) for a, row in cells.items()})
    report = validate(datum)
    if not report.ok:
        notes.extend("inferred datum fails validation: " + line
                     for line in report.lines())
    point_counts = tuple(
        (name_of[pos], tuple((r.q, r.orbits[pos].size) for r in reports))
        for pos in order)
    fit_rows = tuple((name_of[pos], fits[pos]) for pos in order)
    return InferredDatum(datum=datum, notes=tuple(notes),
                         point_counts=point_counts, fits=fit_rows)


def _kindclass(kind: str) -> str:
    return "RI|N" if kind in ("RI", "N") else kind


class CompareReport(NamedTuple):
    match: bool
    lines: tuple[str, ...]


def _structure(d: OrbitDatum) -> tuple[list, list]:
    """One pass over the cells.  Per orbit its colour: its signature (per
    alpha with cells, the kind class and role, RT's z1 and z2 as one "z",
    of its first alpha-cell, or None) and its open flag.  And the cells as
    blocks over orbit positions: one group per role but RT's z pair."""
    rows = [[(alpha, None) for alpha in d.cells] for _ in d.orbits]
    blocks = []
    for k, (alpha, cells) in enumerate(d.cells.items()):
        for cell in cells:
            kind, ids = _kindclass(cell.kind), [d.position[m] for m in cell.members()]
            for role, i in zip(ROLES[cell.kind], ids):
                if rows[i][k][1] is None:
                    rows[i][k] = (alpha, (kind, "z" if kind == "RT" and role != "y" else role))
            blocks.append(((alpha, kind), ((ids[0],), tuple(ids[1:])) if kind == "RT"
                           else tuple((i,) for i in ids)))
    return [(tuple(row), o.open) for row, o in zip(rows, d.orbits)], blocks


def _unmatched(reference: OrbitDatum, candidate: OrbitDatum, fits: dict) -> list[str]:
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


def compare(reference: OrbitDatum, candidate: OrbitDatum, fits=()) -> CompareReport:
    """Isomorphism test of the cell-labeled raise structures.

    Kinds are compared up to the RI|N ambiguity; orbit ids may differ.
    A structure-preserving bijection is searched for, then dim/rk/c/s
    are checked through it.  Lattice data is outside what the oracle
    can see and is not compared.  On an orbit-count mismatch it lists the
    orbits left unpaired by (dim, rk), with a candidate's fitted size from
    ``fits``, pairs (id, (a, b, c)) as in :attr:`InferredDatum.fits`.
    """
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
        ka = sorted(_kindclass(c.kind) for c in reference.cells.get(alpha, ()))
        kb = sorted(_kindclass(c.kind) for c in candidate.cells.get(alpha, ()))
        if ka != kb:
            lines.append(f"cell kind mismatch at alpha {alpha}: "
                         f"{ka} vs {kb} (RI and N identified)")
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
