"""Finite-field brute force: B(F_q)-orbits on G/H for small matrix groups.

Ground truth for the combinatorial layer.  Points of G/H are canonical
coset labels (the lexicographically smallest matrix in the coset under
row-major order), computed in batches; orbits come from union-find over
generator actions, and merge structure under each subminimal parabolic
P_alpha is read off the same way.  G itself is never enumerated: |G| and
the containments B, H, P_alpha <= G are certified by orbit-stabilizer
with Schreier generators.  Orbit sizes fitted to c * q^a * (q-1)^b
across several primes give dimension and rank proxies from which a
candidate datum is inferred; RI and N stay indistinguishable to point
counts and are flagged, never silently resolved.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heappop, heappush
from itertools import product as iproduct
from typing import TYPE_CHECKING

from .coxeter import RootSystem, build_root_system
from .datum import Orbit, OrbitDatum, RaiseCell, datum_to_obj, validate

# numpy is imported inside the functions that compute with it: weylorb and
# weylorb.cli import this module, and the Weyl-layer commands never load numpy.
if TYPE_CHECKING:
    import numpy as np

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
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def _inv_mod(mat: tuple[tuple[int, ...], ...], q: int) -> np.ndarray:
    """Inverse of a nonsingular matrix mod the prime q: the adjugate over
    the determinant, each cofactor a determinant by elimination."""
    import numpy as np
    k, scale = len(mat), pow(_det_mod(mat, q), -1, q)
    return np.array([[(-1) ** (i + j) * scale * _det_mod(
        [row[:i] + row[i + 1:] for r, row in enumerate(mat) if r != j], q) % q
        for j in range(k)] for i in range(k)], dtype=np.int64)


@dataclass(frozen=True)
class MatGroupSpec:
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


def _keys(mats: np.ndarray, q: int):
    """Per matrix of residues mod q, its entries as big-endian integers wide
    enough for q - 1, so keys compare as the row-major entry sequences do."""
    import numpy as np
    flat = mats.astype(np.uint8 if q <= 256 else ">u4").reshape(len(mats), -1)
    return map(np.ndarray.tobytes, flat)  # lazy: no list of a whole closure


def _closure(gens: np.ndarray, q: int, cap: int, what: str) -> np.ndarray:
    """All products of the generators, BFS order from the identity."""
    import numpy as np
    k = gens.shape[1]
    layers = [np.eye(k, dtype=np.int64)[None]]
    seen = set(_keys(layers[0], q))
    while len(layers[-1]):
        prods = (np.matmul(layers[-1][:, None], gens[None]) % q).reshape(-1, k, k)
        fresh = []
        for i, key in enumerate(_keys(prods, q)):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if len(seen) > cap:
            raise OracleError(
                f"{what} closure exceeds cap {cap}: reached {len(seen)} elements")
        layers.append(prods[fresh])
    return np.concatenate(layers)


def _canon(mats: np.ndarray, h_all: np.ndarray, q: int, chunk: int = 2**18) -> np.ndarray:
    """For each matrix m of the stack, the lex-minimal (row-major) element
    of the coset m·H.  The (0, 0) entries of all m·h are formed at once,
    about `chunk` of them per block; each later entry only for the pairs
    (m, h) still minimal, which are then filtered by that entry."""
    import numpy as np
    n, k = mats.shape[:2]
    h_col = h_all[:, :, 0].T  # m[0] @ h_col: the (0, 0) entries of all m·h
    step = max(1, chunk // len(h_all))
    out = np.empty_like(mats)
    for s in range(0, n, step):
        block = mats[s:s + step]
        first = block[:, 0] @ h_col % q
        ni, hi = np.nonzero(first == first.min(axis=1, keepdims=True))  # by m
        for r, c in [(r, c) for r in range(k) for c in range(k)][1:]:
            entry = np.einsum("aj,aj->a", block[ni, r], h_all[hi, :, c]) % q
            starts = np.flatnonzero(np.diff(ni, prepend=-1))
            keep = entry == np.minimum.reduceat(entry, starts)[ni]
            ni, hi = ni[keep], hi[keep]
        out[s:s + step] = block @ h_all[hi[np.flatnonzero(np.diff(ni, prepend=-1))]] % q
    return out


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


@dataclass(frozen=True)
class OrbitInfo:
    representative: str
    size: int


@dataclass(frozen=True)
class OracleReport:
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
            "orbits": [{"representative": o.representative, "size": o.size}
                       for o in self.orbits],
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


def _fmt_matrix(mat: np.ndarray) -> str:
    return "[" + ",".join(
        "[" + ",".join(str(int(x)) for x in row) + "]" for row in mat) + "]"


def enumerate_orbits(spec: MatGroupSpec,
                     cap: int = DEFAULT_POINT_CAP) -> OracleReport:
    """Enumerate B-orbits on G/H over F_q with canonical coset labels.

    G is never enumerated: the Schreier generators t_y^-1 g t_x of the
    coset BFS (t_x in G, t_x H = x) must lie in H and generate G ∩ H, so
    H <= G iff |G ∩ H| = |H|, |G| = points * |H|, and b in B or P_alpha
    is in G iff b·H is a point y with t_y^-1 b in G ∩ H.  The cap bounds
    |H| and, while the BFS grows, points * |H|.

    Deterministic: cosets are named by their lex-minimal element, orbits
    sorted by (size, representative), merge blocks by first member.
    """
    import numpy as np
    q, k = spec.q, spec.dimension
    g_arr = np.array(spec.g_gens, dtype=np.int64)
    g_inv = [_inv_mod(g, q) for g in spec.g_gens]
    h_all = _closure(np.array(spec.h_gens, dtype=np.int64), q, cap, "H")
    h_keys = set(_keys(h_all, q))

    def moved(gens: np.ndarray, mats) -> np.ndarray:  # row i |gens| + j: g_j m_i
        return (np.matmul(gens[None], np.stack(mats)[:, None]) % q).reshape(-1, k, k)

    ident = np.eye(k, dtype=np.int64)
    labels = list(_canon(ident[None], h_all, q))
    index = {next(_keys(labels[0][None], q)): 0}
    trans, tinv = [ident], [ident]
    stab_gens, stab_keys = [], set(_keys(ident[None], q))
    frontier = range(1)
    while frontier:
        prods = moved(g_arr, [trans[x] for x in frontier])
        canon = _canon(prods, h_all, q)
        for e, key in enumerate(_keys(canon, q)):
            x, j = frontier[e // len(g_arr)], e % len(g_arr)
            y = index.setdefault(key, len(labels))
            if y == len(labels):  # a tree edge: its Schreier generator is 1
                if (y + 1) * len(h_all) > cap:
                    raise OracleError(f"G exceeds cap {cap}: points x |H| "
                                      f"reached {(y + 1) * len(h_all)}")
                labels.append(canon[e])
                trans.append(prods[e])
                tinv.append(tinv[x] @ g_inv[j] % q)
                continue
            gen = tinv[y] @ prods[e] % q
            gen_key = next(_keys(gen[None], q))
            if gen_key not in h_keys:
                raise OracleError(
                    f"Schreier generator {_fmt_matrix(gen)} at point "
                    f"{_fmt_matrix(labels[x])}, G generator {j}, is not in H")
            if gen_key not in stab_keys:
                stab_gens.append(gen)
                stab_keys = set(_keys(_closure(np.stack(stab_gens), q, cap, "G & H"), q))
        frontier = range(frontier.stop, len(labels))
    if len(stab_keys) != len(h_all):
        raise OracleError("H is not contained in the group generated by G")

    blocks = [("B", spec.b_gens)] + [(f"P_{a}", m) for a, m in spec.parabolics.items()]
    for name, mats in blocks:  # b in G iff b·H = t_y H with t_y^-1 b in G ∩ H
        mats = np.array(mats, dtype=np.int64)
        ys = [index.get(key) for key in _keys(_canon(mats, h_all, q), q)]
        if None in ys or not stab_keys.issuperset(
                _keys(np.matmul(np.stack([tinv[y] for y in ys]), mats) % q, q)):
            raise OracleError(f"{name} is not contained in the group generated by G")

    def partition_under(gen_arr: np.ndarray) -> _UnionFind:
        uf = _UnionFind(len(labels))
        for e, key in enumerate(_keys(_canon(moved(gen_arr, labels), h_all, q), q)):
            uf.union(e // len(gen_arr), index[key])
        return uf

    buf = partition_under(np.array(spec.b_gens, dtype=np.int64))
    classes: dict[int, list[int]] = {}
    for i in range(len(labels)):
        classes.setdefault(buf.find(i), []).append(i)

    label_keys = list(index)  # insertion order is label order
    ordered = sorted(classes.values(),
                     key=lambda m: (len(m), min(label_keys[i] for i in m)))
    orbit_of_coset = {}
    infos = []
    for oi, members in enumerate(ordered):
        for i in members:
            orbit_of_coset[i] = oi
        best = min(members, key=label_keys.__getitem__)
        infos.append(OrbitInfo(representative=_fmt_matrix(labels[best]),
                               size=len(members)))
    total = sum(o.size for o in infos)
    if total != len(labels):
        raise OracleError(f"orbit sizes sum to {total}, not {len(labels)}")

    merges: dict[int, tuple[tuple[int, ...], ...]] = {}
    for alpha, mats in sorted(spec.parabolics.items()):
        puf = partition_under(np.array(mats, dtype=np.int64))
        pclasses: dict[int, set[int]] = {}
        for i in range(len(labels)):
            pclasses.setdefault(puf.find(i), set()).add(orbit_of_coset[i])
        sizes = Counter(map(puf.find, range(len(labels))))
        for root, orbset in pclasses.items():
            if sum(infos[oi].size for oi in orbset) != sizes[root]:
                raise OracleError(f"P_{alpha} class is not a union of B-orbits")
        blocks = sorted(tuple(sorted(s)) for s in pclasses.values())
        merges[alpha] = tuple(blocks)
    return OracleReport(spec_name=spec.name, root_system=spec.root_system,
                        q=q, group_order=len(labels) * len(stab_keys),
                        subgroup_order=len(h_all), point_count=len(labels),
                        orbits=tuple(infos), merges=merges)


def fit_monomial(points: list[tuple[int, int]]) -> tuple[int, int, Fraction] | None:
    """Exponents (a, b) and positive rational c with size = c q^a (q-1)^b.

    Returns None when no monomial matches all (q, size) pairs; raises
    when several monomials do (not enough primes to pin one down).
    """
    if len(points) < 2:
        raise OracleError("monomial fit needs at least two primes")
    q0, s0 = points[0]
    hits = []
    for a, b in iproduct(range(_FIT_EXPONENT_BOUND), repeat=2):
        denom = q0**a * (q0 - 1) ** b
        c = Fraction(s0, denom)
        if c <= 0:
            continue
        if all(c * q**a * (q - 1) ** b == s for q, s in points[1:]):
            hits.append((a, b, c))
    if not hits:
        return None
    if len(hits) > 1:
        raise OracleError(f"ambiguous monomial fit {hits}; add more primes")
    return hits[0]


@dataclass(frozen=True)
class InferredDatum:
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
        out.append(replace(rep, orbits=tuple(rep.orbits[i] for i in inverse),
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
    fits: list[tuple[int, int, Fraction] | None] = []
    for i in range(n):
        points = [(r.q, r.orbits[i].size) for r in reports]
        fits.append(fit_monomial(points))

    if any(f is None for f in fits):
        bad = [i for i, f in enumerate(fits) if f is None]
        for i in bad:
            notes.append(f"orbit {i} unclassified: no monomial size fit")
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
                continue
            if len(block) == 2:
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
                continue
            if len(block) == 3:
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
                continue
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


_KINDCLASS = {"RI": "RI|N", "N": "RI|N"}


def _kindclass(kind: str) -> str:
    return _KINDCLASS.get(kind, kind)


@dataclass(frozen=True)
class CompareReport:
    match: bool
    lines: tuple[str, ...]


def _signature(d: OrbitDatum, oid: str):
    sig = []
    for alpha in sorted(d.cells):
        hit = d.membership.get((alpha, oid))
        if hit is not None:
            cell, role = hit
            hit = (_kindclass(cell.kind),
                   "z" if cell.kind == "RT" and role != "y" else role)
        sig.append((alpha, hit))
    return tuple(sig)


def _cell_blocks(d: OrbitDatum) -> list:
    """Cells as blocks over orbit positions: one group per role but RT's z pair."""
    pos = {oid: i for i, oid in enumerate(d.orbit_ids())}
    out = []
    for alpha, cells in d.cells.items():
        for cell in cells:
            ids = [pos[m] for m in cell.members()]
            groups = (((ids[0],), tuple(ids[1:])) if cell.kind == "RT"
                      else tuple((i,) for i in ids))
            out.append(((alpha, _kindclass(cell.kind)), groups))
    return out


def compare(reference: OrbitDatum, candidate: OrbitDatum) -> CompareReport:
    """Isomorphism test of the cell-labeled raise structures.

    Kinds are compared up to the RI|N ambiguity; orbit ids may differ.
    A structure-preserving bijection is searched for, then dim/rk/c/s
    are checked through it.  Lattice data is outside what the oracle
    can see and is not compared.
    """
    lines: list[str] = []
    if reference.root_system.key != candidate.root_system.key:
        lines.append(f"root system mismatch: {reference.root_system.to_text()} "
                     f"vs {candidate.root_system.to_text()}")
        return CompareReport(match=False, lines=tuple(lines))
    a_ids, b_ids = reference.orbit_ids(), candidate.orbit_ids()
    if len(a_ids) != len(b_ids):
        lines.append(f"orbit count mismatch: {len(a_ids)} vs {len(b_ids)}")
        return CompareReport(match=False, lines=tuple(lines))
    for alpha in sorted(reference.cells):
        ka = sorted(_kindclass(c.kind) for c in reference.cells.get(alpha, ()))
        kb = sorted(_kindclass(c.kind) for c in candidate.cells.get(alpha, ()))
        if ka != kb:
            lines.append(f"cell kind mismatch at alpha {alpha}: "
                         f"{ka} vs {kb} (RI and N identified)")
    if lines:
        return CompareReport(match=False, lines=tuple(lines))

    perm = _match([(_signature(reference, o.id), o.open) for o in reference.orbits],
                  _cell_blocks(reference),
                  [(_signature(candidate, o.id), o.open) for o in candidate.orbits],
                  _cell_blocks(candidate))
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
