"""Restricted root systems and their finite Weyl groups, exactly.

Vectors are written in simple-root coordinates, i.e. ``v[i]`` is the
coefficient of the i-th simple root.  In that basis every Weyl group
element is an integer matrix and all comparisons are exact; no floats
appear anywhere.  The non-reduced family BC reuses the Weyl group of the
underlying B-type system and carries the doubled roots in its root list,
so lengths and reflections are counted per root line, one line per
{alpha, 2*alpha} class.

Products such as A1xA1 are block-diagonal compositions and are named by
their component tokens joined with "x".
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import combinations

__all__ = [
    "DEFAULT_GROUP_CAP", "CapExceeded", "RootSystem", "RootSystemError",
    "WeylElement", "braid_order", "build_root_system", "canonical_word",
    "enumerate_group", "reflections", "subgroup_closure", "word_name",
]

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

#: Default cap on group enumeration and subgroup closure (the order of W(E6)).
DEFAULT_GROUP_CAP = 51840

_SIMPLE_TOKEN = re.compile(r"^(BC|A|B|C|D|G2|F4)(\d*)$")


class RootSystemError(ValueError):
    """Invalid family, rank, or raise-dimension data."""


class CapExceeded(RuntimeError):
    """A group enumeration grew past the configured cap."""


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def mat_apply(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse of an integer matrix that is invertible over Z."""
    from fractions import Fraction  # only inverses make fractions
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        vals = row[n:]
        if any(x.denominator != 1 for x in vals):
            raise ValueError("matrix is not invertible over the integers")
        out.append(tuple(int(x) for x in vals))
    return tuple(out)


def _is_nonneg(v: Vector) -> bool:
    return all(x >= 0 for x in v) and any(x != 0 for x in v)


def _cartan_and_lengths(fam: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix C[i][j] = <alpha_j, alpha_i-vee> and integer half
    square-lengths, per irreducible family (BC uses its B-type base)."""
    if rank < 1:
        raise RootSystemError(f"family {fam} needs rank >= 1, got {rank}")
    chain = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        chain[i][i] = 2
    for i in range(rank - 1):
        chain[i][i + 1] = chain[i + 1][i] = -1
    if fam == "A":
        return chain, [1] * rank
    if fam in ("B", "BC"):
        if rank >= 2:
            chain[rank - 2][rank - 1] = -1
            chain[rank - 1][rank - 2] = -2
        return chain, [2] * (rank - 1) + [1]
    if fam == "C":
        if rank >= 2:
            chain[rank - 2][rank - 1] = -2
            chain[rank - 1][rank - 2] = -1
        return chain, [1] * (rank - 1) + [2]
    if fam == "D":
        if rank < 2:
            raise RootSystemError("family D needs rank >= 2")
        c = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            c[i][i] = 2
        for i in range(rank - 2):
            c[i][i + 1] = c[i + 1][i] = -1
        if rank >= 3:
            c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
        return c, [1] * rank
    if fam == "G2":
        if rank != 2:
            raise RootSystemError("G2 has rank 2")
        return [[2, -3], [-1, 2]], [1, 3]
    if fam == "F4":
        if rank != 4:
            raise RootSystemError("F4 has rank 4")
        c = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
        return c, [2, 2, 1, 1]
    raise RootSystemError(f"unknown family {fam!r}")


def _positive_roots(cartan: list[list[int]], rank: int) -> list[Vector]:
    """All positive roots of a reduced system, by reflection closure from
    the simple roots.  Returned sorted for determinism."""
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                pairing = sum(v[j] * cartan[i][j] for j in range(rank))
                w = tuple(v[j] - (pairing if j == i else 0) for j in range(rank))
                if _is_nonneg(w) and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def _parse_component(token: str) -> tuple[str, int]:
    m = _SIMPLE_TOKEN.match(token)
    if not m:
        raise RootSystemError(f"cannot parse root-system token {token!r}")
    fam, digits = m.group(1), m.group(2)
    if fam in ("G2", "F4"):
        implied = 2 if fam == "G2" else 4
        if digits and int(digits) != implied:
            raise RootSystemError(f"{fam} has rank {implied}, not {digits}")
        return fam, implied
    if not digits:
        raise RootSystemError(f"token {token!r} is missing a rank")
    return fam, int(digits)


class _Frozen:
    """Base of the plain value classes, whose slots ``__init__`` sets once."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")
    __delattr__ = __setattr__


class RootSystem(_Frozen):
    """A finite (possibly non-reduced, possibly reducible) restricted root
    system with per-simple-root raise dimensions n_alpha.  Equality and
    hashing use :attr:`key` only."""

    __slots__ = ("family", "rank", "cartan", "lengths", "simple_roots",
                 "positive_roots", "positive_lines", "raise_dims", "gram")

    def __init__(self, family: str, rank: int, cartan: Matrix, lengths: tuple[int, ...],
                 simple_roots: tuple[Vector, ...], positive_roots: tuple[Vector, ...],
                 positive_lines: tuple[Vector, ...], raise_dims: tuple[int, ...],
                 gram: Matrix) -> None:
        self._set(family, rank, cartan, lengths, simple_roots, positive_roots,
                  positive_lines, raise_dims, gram)

    @property
    def key(self) -> tuple:
        return (self.family, self.rank, self.raise_dims)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    # -- pairings ---------------------------------------------------------

    def form(self, u: Vector, v: Vector) -> int:
        """Weyl-invariant inner product (u, v) in simple-root coordinates."""
        return sum(u[i] * self.gram[i][j] * v[j]
                   for i in range(self.rank) for j in range(self.rank))

    def cartan_pairing(self, beta: Vector, i: int) -> int:
        """<beta, alpha_i-vee> for the i-th simple root (0-based), an integer."""
        return sum(beta[j] * self.cartan[i][j] for j in range(self.rank))

    # -- membership -------------------------------------------------------

    def is_root(self, v: Vector) -> bool:
        """Whether v is a root (positive or negative) of this system.

        >>> rs = build_root_system("A1xA1")
        >>> rs.is_root((1, 1))
        False
        >>> build_root_system("B", 2).is_root((1, 1))
        True
        """
        v = tuple(v)
        if len(v) != self.rank:
            return False
        pos = set(self.positive_roots)
        return v in pos or tuple(-x for x in v) in pos

    # -- elements ---------------------------------------------------------

    def identity_element(self) -> "WeylElement":
        return WeylElement(self, mat_identity(self.rank), ())

    def simple_reflection(self, i: int) -> "WeylElement":
        """Reflection in the i-th simple root (0-based index)."""
        if not 0 <= i < self.rank:
            raise RootSystemError(f"simple root index {i} out of range")
        mat = tuple(
            tuple((1 if r == j else 0) - (self.cartan[i][j] if r == i else 0)
                  for j in range(self.rank))
            for r in range(self.rank)
        )
        return WeylElement(self, mat, (i,))

    # -- text record ------------------------------------------------------

    def to_text(self) -> str:
        """Serialize as e.g. ``A 2 n=[1,1]``."""
        return f"{self.family} {self.rank} n=[{','.join(str(n) for n in self.raise_dims)}]"


def build_root_system(family: str, rank: int | None = None,
                      raise_dims: list[int] | None = None) -> RootSystem:
    """Build a root system from a family name and rank.

    Accepts plain families ("A", 2), self-contained tokens ("A2", "G2",
    "BC2"), and products ("A1xA1", "A1xB2").

    >>> build_root_system("BC", 1).positive_roots
    ((1,), (2,))
    >>> len(build_root_system("G2").positive_roots)
    6
    """
    family = family.strip()
    if "x" in family:
        comps = [_parse_component(t) for t in family.split("x")]
        token = "x".join(f"{f}{r}" if f not in ("G2", "F4") else f
                         for f, r in comps)
    else:
        m = _SIMPLE_TOKEN.match(family)
        if not m:
            raise RootSystemError(f"unknown family {family!r}")
        fam, digits = m.group(1), m.group(2)
        if digits:
            r = int(digits)
            if rank is not None and rank != r:
                raise RootSystemError(
                    f"token {family!r} conflicts with explicit rank {rank}")
            comps = [_parse_component(family)]
        elif fam in ("G2", "F4"):
            implied = 2 if fam == "G2" else 4
            if rank is not None and rank != implied:
                raise RootSystemError(f"{fam} has rank {implied}")
            comps = [(fam, implied)]
        else:
            if rank is None:
                raise RootSystemError(f"family {fam!r} needs an explicit rank")
            comps = [(fam, rank)]
        token = comps[0][0]
    total = sum(r for _, r in comps)
    if rank is not None and rank != total:
        raise RootSystemError(f"rank {rank} does not match {token} (rank {total})")

    cartan = [[0] * total for _ in range(total)]
    lengths: list[int] = []
    positives: list[Vector] = []
    doubled: list[Vector] = []
    off = 0
    for fam, r in comps:
        c, d = _cartan_and_lengths(fam, r)
        for i in range(r):
            for j in range(r):
                cartan[off + i][off + j] = c[i][j]
        lengths.extend(d)
        pos = _positive_roots(c, r)
        def embed(v: Vector, off: int = off, r: int = r) -> Vector:
            return (0,) * off + v + (0,) * (total - off - r)
        positives.extend(embed(v) for v in pos)
        if fam == "BC":
            # doubled roots: twice every short root of the B-type base
            gram = [[d[i] * c[i][j] for j in range(r)] for i in range(r)]
            def sq(v: Vector) -> int:
                return sum(v[i] * gram[i][j] * v[j] for i in range(r) for j in range(r))
            shortest = min(sq(v) for v in pos)
            for v in pos:
                if sq(v) == shortest:
                    doubled.append(embed(tuple(2 * x for x in v)))
        off += r

    all_pos = sorted(positives + doubled)
    pos_set = set(positives + doubled)
    lines = tuple(v for v in all_pos
                  if not (all(x % 2 == 0 for x in v)
                          and tuple(x // 2 for x in v) in pos_set))

    if raise_dims is None:
        dims = tuple([1] * total)
    else:
        dims = tuple(int(n) for n in raise_dims)
        if len(dims) != total:
            raise RootSystemError(
                f"raise_dims has {len(dims)} entries for rank {total}")
        if any(n < 1 for n in dims):
            raise RootSystemError("raise dims must be >= 1")
        _check_raise_dims(cartan, dims)

    cartan_t = tuple(tuple(row) for row in cartan)
    gram = tuple(tuple(lengths[i] * cartan[i][j] for j in range(total))
                 for i in range(total))

    return RootSystem(
        family=token,
        rank=total,
        cartan=cartan_t,
        lengths=tuple(lengths),
        simple_roots=tuple(tuple(int(i == j) for j in range(total))
                           for i in range(total)),
        positive_roots=tuple(all_pos),
        positive_lines=lines,
        raise_dims=dims,
        gram=gram,
    )


def _check_raise_dims(cartan: list[list[int]], dims: tuple[int, ...]) -> None:
    """Refuse raise dims that differ on Weyl-conjugate simple roots.

    Simple roots are conjugate exactly when a chain of single bonds
    (a_ij a_ji = 1) joins them.  A class is named by its least positive
    line, which is its simple root of largest index, and the classes are
    checked in the order of those lines.
    """
    rank = len(dims)
    seen: set[int] = set()
    for top in reversed(range(rank)):
        if top in seen:
            continue
        cls = [top]
        for i in cls:  # cls grows as the search finds single bonds
            cls.extend(j for j in range(rank) if j not in cls
                       and cartan[i][j] * cartan[j][i] == 1)
        seen.update(cls)
        ns = sorted({dims[i] for i in cls})
        if len(ns) > 1:
            raise RootSystemError(
                "raise dims must agree on Weyl-conjugate simple roots; conflict "
                f"{ns} in the orbit of {tuple(int(i == top) for i in range(rank))}")


class WeylElement(_Frozen):
    """A Weyl group element: an exact integer matrix plus a witnessing word
    in simple reflections.  Equality and hashing use the matrix only."""

    __slots__ = ("system", "matrix", "word")

    def __init__(self, system: RootSystem, matrix: Matrix, word: tuple[int, ...]) -> None:
        self._set(system, matrix, word)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, WeylElement)
                and self.system == other.system
                and self.matrix == other.matrix)

    def __hash__(self) -> int:
        return hash((self.system.key, self.matrix))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.system != other.system:
            raise RootSystemError("cannot multiply elements of different systems")
        return WeylElement(self.system, mat_mul(self.matrix, other.matrix),
                           self.word + other.word)

    def inverse(self) -> "WeylElement":
        return WeylElement(self.system, mat_inverse(self.matrix),
                           tuple(reversed(self.word)))

    def is_identity(self) -> bool:
        return self.matrix == mat_identity(self.system.rank)

    def apply(self, v: Vector) -> Vector:
        return mat_apply(self.matrix, v)

    def length(self) -> int:
        """Number of positive root lines sent to negative roots.

        >>> rs = build_root_system("A", 2)
        >>> (rs.simple_reflection(0) * rs.simple_reflection(1)).length()
        2
        """
        count = 0
        for line in self.system.positive_lines:
            img = mat_apply(self.matrix, line)
            if all(x <= 0 for x in img):
                count += 1
        return count

    def __repr__(self) -> str:
        w = ".".join(str(i + 1) for i in self.word) or "e"
        return f"WeylElement({self.system.family}, {w})"


def braid_order(rs: RootSystem, i: int, j: int) -> int:
    """Order m(alpha_i, alpha_j) of s_i s_j: 2, 3, 4 or 6 as a_ij a_ji is
    0, 1, 2 or 3.

    >>> braid_order(build_root_system("G2"), 0, 1)
    6
    """
    if i == j:
        raise RootSystemError("braid order needs two distinct simple roots")
    for k in (i, j):
        if not 0 <= k < rs.rank:
            raise RootSystemError(f"simple root index {k} out of range")
    return (2, 3, 4, 6)[rs.cartan[i][j] * rs.cartan[j][i]]


def braid_witnesses(rs: RootSystem, tables: dict, identity: list,
                    compose) -> list[tuple[int, int, int, int]]:
    """(a, b, m, i) for each pair a < b of the sorted 1-based simple roots
    keying tables where pi^m, pi = t_a t_b and m the braid order, moves a
    point, i the first such point.  tables[alpha][i] is the image of point
    i and identity[i] is point i; compose(p, q) is the table of p after q,
    so each pair costs m compositions of whole tables."""
    out = []
    for a, b in combinations(sorted(tables), 2):
        m = braid_order(rs, a - 1, b - 1)
        pi = power = compose(tables[a], tables[b])
        for _ in range(m - 1):
            power = compose(pi, power)
        if power != identity:
            out.append((a, b, m, next(i for i, (x, e) in enumerate(zip(power, identity))
                                      if x != e)))
    return out


class WeylGroup:
    """The Weyl group of one Cartan matrix as tables over element ids.

    Ids are positions in shortlex BFS order from the identity (id 0), the
    order :func:`enumerate_group` lists; ``words[w]`` is the canonical
    reduced word of w, ``mul[w][i]`` the id of w·s_i, ``left[w][i]`` that
    of s_i·w and ``inv[w]`` that of w^-1.  The BFS keys w by the vector
    w^-1(2 rho), 2 rho the sum of the positive lines: 2 rho is regular, so
    the keys are distinct, and the key of w·s_i is s_i applied to the key
    of w, one simple reflection of a vector instead of a matrix product.
    Matrices and the matrix -> id index are built on first use.

    >>> g = weyl_group(build_root_system("A", 2))
    >>> len(g), g.words[g.mul[1][1]], g.words[g.left[1][1]], g.inv[3] == 4
    (6, (0, 1), (1, 0), True)
    """

    def __init__(self, rs: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        self.rank, self.cartan, self.lines = rs.rank, rs.cartan, rs.positive_lines
        two_rho = tuple(map(sum, zip(*self.lines)))
        ids = {two_rho: 0}
        keys = [two_rho]
        words: list[tuple[int, ...]] = [()]
        mul: list[list[int | None]] = [[None] * self.rank]
        # s_i(v) = v - <v, alpha_i-vee> alpha_i: -v_i - sum C[i][j] v_j over bonded j
        bonds = [[(j, c) for j, c in enumerate(row) if c and j != i]
                 for i, row in enumerate(self.cartan)]
        for w, v in enumerate(keys):  # keys grows as the BFS discovers elements
            row = mul[w]
            for i, bond in enumerate(bonds):
                if row[i] is not None:  # set from x = w·s_i, as x·s_i = w
                    continue
                u = list(v)  # s_i(v) changes coordinate i only
                u[i] = -v[i]
                for j, c in bond:
                    u[i] -= c * v[j]
                u = tuple(u)
                x = ids.get(u)
                if x is None:
                    if len(ids) >= cap:
                        raise CapExceeded(
                            f"Weyl group exceeds cap {cap}: reached {cap + 1} elements")
                    x = ids[u] = len(keys)
                    keys.append(u)
                    words.append(words[w] + (i,))
                    mul.append([None] * self.rank)
                row[i] = x
                mul[x][i] = w
        # w = s_j t with t the element of words[w][1:]: t = tail(parent)·s_i
        # and w^-1 = t^-1 s_j, both known since t and the parent are shorter.
        tail = [0] * len(words)
        inv = [0] * len(words)
        for w in range(1, len(words)):
            i = words[w][-1]
            parent = mul[w][i]
            tail[w] = mul[tail[parent]][i] if parent else 0
            inv[w] = mul[inv[tail[w]]][words[w][0]]
        self.words = tuple(words)
        self.mul = tuple(map(tuple, mul))
        self.inv = tuple(inv)
        self.left = tuple([tuple([inv[x] for x in mul[y]]) for y in inv])

    def __len__(self) -> int:
        return len(self.words)

    def _times_simple(self, m: Matrix, i: int) -> Matrix:
        """M·s_i: subtract C[i][j] times column i from column j."""
        c = self.cartan[i]
        return tuple(tuple([x - cj * row[i] for x, cj in zip(row, c)]) if row[i] else row
                     for row in m)

    @cached_property
    def matrices(self) -> tuple[Matrix, ...]:
        """Each element's matrix from its BFS parent's."""
        out = [mat_identity(self.rank)]
        for w in range(1, len(self)):
            i = self.words[w][-1]
            out.append(self._times_simple(out[self.mul[w][i]], i))
        return tuple(out)

    @cached_property
    def reflections(self) -> tuple[int, ...]:
        """Id of the reflection in each positive line, in line order.

        If r is the reflection in beta, then s_j·r·s_j, the id
        ``left[mul[r][j]][j]``, is the reflection in s_j(beta).  Every
        positive line is reached from a simple root by simple reflections
        that keep it positive, and s_j turns only alpha_j negative.

        >>> g = weyl_group(build_root_system("A", 2))
        >>> [g.words[w] for w in g.reflections]
        [(1,), (0,), (0, 1, 0)]
        """
        order = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        found = {beta: self.mul[0][i] for i, beta in enumerate(order)}
        for beta in order:  # order grows as conjugation reaches new lines
            r = found[beta]
            for j, c in enumerate(self.cartan):
                x = beta[j] - sum(map(int.__mul__, c, beta))
                gamma = beta[:j] + (x,) + beta[j + 1:]
                if x >= 0 and gamma not in found:  # x < 0 only for beta = alpha_j
                    found[gamma] = self.left[self.mul[r][j]][j]
                    order.append(gamma)
        return tuple(found[line] for line in self.lines)

    @cached_property
    def index(self) -> dict[Matrix, int]:
        return {m: w for w, m in enumerate(self.matrices)}

    def id_of(self, matrix: Matrix) -> int:
        w = self.index.get(matrix)
        if w is None:
            raise RootSystemError("element does not belong to its Weyl group")
        return w

    def product(self, a: int, b: int) -> int:
        """The id of a·b, by b's word through the right table."""
        for i in self.words[b]:
            a = self.mul[a][i]
        return a

    def closure(self, ids: list[int], cap: int = DEFAULT_GROUP_CAP) -> set[int]:
        """Ids of the subgroup generated by ids, breadth-first from the
        identity by right multiplication through the tables.

        >>> g = weyl_group(build_root_system("A", 2))
        >>> sorted(g.words[w] for w in g.closure([g.product(1, 2)]))
        [(), (0, 1), (1, 0)]
        """
        seen = {0}
        order = [0]
        for w in order:  # order grows as the BFS discovers elements
            for g in ids:
                x = self.product(w, g)
                if x not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"subgroup closure exceeds cap {cap}: "
                                          f"reached {cap + 1} elements")
                    seen.add(x)
                    order.append(x)
        return seen

    def element(self, rs: RootSystem, w: int) -> WeylElement:
        """Element w over rs, with its canonical word and the matrix built
        along it, so that one element does not build all of ``matrices``."""
        m = mat_identity(self.rank)
        for i in self.words[w]:
            m = self._times_simple(m, i)
        return WeylElement(rs, m, self.words[w])


_GROUPS: dict[tuple[str, int], WeylGroup] = {}


def weyl_group(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> WeylGroup:
    """The indexed Weyl group of rs, built once per Cartan type (family,
    rank) and shared by every choice of raise dims."""
    group = _GROUPS.get((rs.family, rs.rank))
    if group is None or len(group) > cap:  # the latter BFS stops at the cap
        group = _GROUPS[rs.family, rs.rank] = WeylGroup(rs, cap)
    return group


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> list[WeylElement]:
    """All elements of the Weyl group, BFS order from the identity.

    Each element carries a canonical reduced word (shortlex from the BFS),
    so ids and output derived from this list are deterministic.
    """
    group = weyl_group(rs, cap)
    return [WeylElement(rs, m, word) for m, word in zip(group.matrices, group.words)]


def subgroup_closure(gens: list[WeylElement],
                     cap: int = DEFAULT_GROUP_CAP) -> set[WeylElement]:
    """Smallest subgroup containing gens, closed over the Weyl group's
    tables (:meth:`WeylGroup.closure`); words are canonical.  W itself is
    built under the larger of cap and the default cap."""
    if not gens:
        raise RootSystemError("subgroup_closure needs at least one element")
    rs = gens[0].system
    if any(g.system != rs for g in gens):
        raise RootSystemError("generators come from different root systems")
    group = weyl_group(rs, max(cap, DEFAULT_GROUP_CAP))
    return {group.element(rs, w)
            for w in group.closure([group.id_of(g.matrix) for g in gens], cap)}


def reflections(rs: RootSystem) -> list[WeylElement]:
    """All reflections of the Weyl group, one per positive root line,
    sorted by line for determinism.  Words are canonical reduced words."""
    group = weyl_group(rs)
    return [group.element(rs, w) for w in group.reflections]


def canonical_word(w: WeylElement) -> tuple[int, ...]:
    """Canonical reduced word for w from the group enumeration."""
    group = weyl_group(w.system)
    return group.words[group.id_of(w.matrix)]


def word_name(word: tuple[int, ...]) -> str:
    """Readable 1-based dotted name for a word; the identity is "e"."""
    return ".".join(str(i + 1) for i in word) if word else "e"
