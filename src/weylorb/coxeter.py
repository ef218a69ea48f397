"""Restricted root systems and their finite Weyl groups, exactly.

Vectors are written in simple-root coordinates, i.e. ``v[i]`` is the
coefficient of the i-th simple root, and all arithmetic is exact
integers; no floats appear anywhere.  The Weyl group is one indexed
object, :class:`WeylGroup`: element ids in shortlex order with their
canonical words and multiplication tables.  A :class:`WeylElement` is a
handle on one id with a witnessing word.  The non-reduced family BC
reuses the Weyl group of the underlying B-type system and carries the
doubled roots in its root list, so lengths and reflections are counted
per root line, one line per {alpha, 2*alpha} class.

Products such as A1xA1 are block-diagonal compositions and are named by
their component tokens joined with "x".
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import combinations

from . import InputError

__all__ = [
    "DEFAULT_GROUP_CAP", "CapExceeded", "RootSystem", "RootSystemError",
    "WeylElement", "braid_order", "build_root_system", "enumerate_group",
    "reflections", "subgroup_closure", "word_name",
]

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

#: Default cap on group enumeration and subgroup closure (the order of W(E6)).
DEFAULT_GROUP_CAP = 51840
#: Largest total rank of a root system.  No cap bounds the build, whose
#: time grows as rank^4: 0.2 s for BC32, 2.5 s for B64 (Python 3.11).
MAX_RANK = 32

_TOKEN = re.compile(r"^(BC|A|B|C|D|G2|F4)(\d*)$")
_IMPLIED_RANK = {"G2": 2, "F4": 4}
#: Each family of rank r is the chain of single bonds 0 - 1 - ... - (r-1)
#: with bond k = r - 2 - back changed to join nodes k - shift and k + 1,
#: where C[k - shift][k + 1] = a and C[k + 1][k - shift] = b.  Nodes up to
#: k have half square-length -b, the rest -a.
_BONDS = {  # family: (back, shift, a, b)
    "A": (0, 0, -1, -1), "B": (0, 0, -1, -2), "BC": (0, 0, -1, -2),
    "C": (0, 0, -2, -1), "D": (0, 1, -1, -1), "G2": (0, 0, -3, -1),
    "F4": (1, 0, -1, -2),
}


class RootSystemError(InputError, ValueError):
    """Invalid family, rank, or raise-dimension data."""


class CapExceeded(InputError, RuntimeError):
    """A group enumeration grew past the configured cap."""


def simple_reflection(cartan: Matrix, i: int, v: Vector) -> Vector:
    """s_i(v) = v - <v, alpha_i-vee> alpha_i, which changes coordinate i
    only: the pairing is read off Cartan row i."""
    return v[:i] + (v[i] - sum(map(int.__mul__, cartan[i], v)),) + v[i + 1:]


def _components(family: str, rank: int | None) -> tuple[str, list[tuple[str, int]]]:
    """The name and (family, rank) components of a token: "A2", "G2",
    "A1xB2", or a family letter that the explicit rank completes."""
    tokens = family.split("x")
    lone = len(tokens) == 1
    comps = []
    for token in tokens:
        m = _TOKEN.match(token)
        if not m:
            raise RootSystemError(f"unknown family {token!r}" if lone
                                  else f"cannot parse root-system token {token!r}")
        fam, digits = m.groups()
        implied = _IMPLIED_RANK.get(fam)
        if lone and digits and rank is not None and int(digits) != rank:
            raise RootSystemError(f"token {token!r} conflicts with explicit rank {rank}")
        if implied and digits and int(digits) != implied:
            raise RootSystemError(f"{fam} has rank {implied}, not {digits}")
        if implied and lone and rank not in (None, implied):
            raise RootSystemError(f"{fam} has rank {implied}")
        if not (digits or implied):
            if not lone:
                raise RootSystemError(f"token {token!r} is missing a rank")
            if rank is None:
                raise RootSystemError(f"family {fam!r} needs an explicit rank")
        comps.append((fam, implied or int(digits or rank)))
    name = comps[0][0] if lone else "x".join(
        f if f in _IMPLIED_RANK else f"{f}{r}" for f, r in comps)
    total = sum(r for _, r in comps)
    if rank is not None and rank != total:
        raise RootSystemError(f"rank {rank} does not match {name} (rank {total})")
    if total > MAX_RANK:
        raise RootSystemError(f"rank {total} exceeds the limit {MAX_RANK}")
    for fam, r in comps:
        if r < 1:
            raise RootSystemError(f"family {fam} needs rank >= 1, got {r}")
        if fam == "D" and r < 2:
            raise RootSystemError("family D needs rank >= 2")
    return name, comps


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

    __slots__ = ("family", "rank", "cartan", "positive_roots", "positive_lines",
                 "raise_dims", "gram")

    def __init__(self, family: str, rank: int, cartan: Matrix,
                 positive_roots: tuple[Vector, ...], positive_lines: tuple[Vector, ...],
                 raise_dims: tuple[int, ...], gram: Matrix) -> None:
        self._set(family, rank, cartan, positive_roots, positive_lines, raise_dims, gram)

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

    # -- text record ------------------------------------------------------

    def to_text(self) -> str:
        """Serialize as e.g. ``A 2 n=[1,1]``."""
        return f"{self.family} {self.rank} n=[{','.join(str(n) for n in self.raise_dims)}]"


def build_root_system(family: str, rank: int | None = None,
                      raise_dims: list[int] | None = None) -> RootSystem:
    """Build a root system from a family name and rank.

    Accepts plain families ("A", 3), self-contained tokens ("A2", "G2",
    "BC2"), and products ("A1xA1", "A1xB2") of total rank at most
    ``MAX_RANK``.  The Cartan matrix is block diagonal, one block per
    component; the positive roots are one reflection closure of the simple
    roots over it, and a BC block adds twice its shortest roots.

    >>> build_root_system("A2").positive_roots
    ((0, 1), (1, 0), (1, 1))
    >>> build_root_system("A", 3).to_text()
    'A 3 n=[1,1,1]'
    >>> build_root_system("A1xB2").cartan
    ((2, 0, 0), (0, 2, -1), (0, -2, 2))
    >>> build_root_system("BC", 1).positive_roots
    ((1,), (2,))
    >>> build_root_system("A1xB2", 2)
    Traceback (most recent call last):
    ...
    weylorb.coxeter.RootSystemError: rank 2 does not match A1xB2 (rank 3)
    """
    if rank is not None and type(rank) is not int:
        raise RootSystemError("rank must be an integer")
    name, comps = _components(family.strip(), rank)
    total = sum(r for _, r in comps)
    cartan = [[2 * (i == j) for j in range(total)] for i in range(total)]
    lengths: list[int] = []
    for fam, r in comps:
        back, shift, a, b = _BONDS[fam]
        k, off = r - 2 - back, len(lengths)
        bonds = [(i, i + 1, -1, -1) for i in range(r - 1) if i != k]
        for i, j, c_ij, c_ji in bonds + [(k - shift, k + 1, a, b)] * (k >= shift):
            cartan[off + i][off + j], cartan[off + j][off + i] = c_ij, c_ji
        lengths += [-b] * (k + 1) + [-a] * (r - k - 1)
    cartan = tuple(map(tuple, cartan))
    gram = tuple(tuple(d * c for c in row) for d, row in zip(lengths, cartan))

    if raise_dims is None:
        dims = (1,) * total
    else:
        dims = tuple(raise_dims)
        if any(type(n) is not int for n in dims):
            raise RootSystemError("raise dims must be integers")
        if len(dims) != total:
            raise RootSystemError(
                f"raise_dims has {len(dims)} entries for rank {total}")
        if any(n < 1 for n in dims):
            raise RootSystemError("raise dims must be >= 1")
        _check_raise_dims(cartan, dims)

    roots = [tuple(int(i == j) for j in range(total)) for i in range(total)]
    seen = set(roots)
    for v in roots:  # roots grows as the closure finds them
        for i in range(total):
            w = simple_reflection(cartan, i, v)
            if w[i] >= 0 and w not in seen:  # s_i turns only alpha_i negative
                seen.add(w)
                roots.append(w)
    doubled, off = [], 0
    for fam, r in comps:
        block = range(off, off + r)
        off += r
        if fam == "BC":  # twice the block's shortest roots, under the system's gram
            sq = {v: sum(v[i] * gram[i][j] * v[j] for i in block for j in block)
                  for v in roots if any(v[i] for i in block)}
            shortest = min(sq.values())
            doubled += [tuple(2 * x for x in v) for v, n in sq.items() if n == shortest]
    return RootSystem(name, total, cartan, tuple(sorted(roots + doubled)),
                      tuple(sorted(roots)), dims, gram)


def _check_raise_dims(cartan: Matrix, dims: tuple[int, ...]) -> None:
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
    """A handle on element ``id`` of the Weyl group of ``system``, with a
    witnessing word in simple reflections.  Equality and hashing use
    (system.key, id) only; arithmetic reads :func:`weyl_group`'s tables,
    so it is bounded by ``DEFAULT_GROUP_CAP``."""

    __slots__ = ("system", "id", "word")

    def __init__(self, system: RootSystem, id: int, word: tuple[int, ...]) -> None:
        self._set(system, id, word)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, WeylElement)
                and self.system == other.system and self.id == other.id)

    def __hash__(self) -> int:
        return hash((self.system.key, self.id))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.system != other.system:
            raise RootSystemError("cannot multiply elements of different systems")
        return WeylElement(self.system, weyl_group(self.system).product(self.id, other.id),
                           self.word + other.word)

    def inverse(self) -> "WeylElement":
        return WeylElement(self.system, weyl_group(self.system).inv[self.id],
                           tuple(reversed(self.word)))

    def __repr__(self) -> str:
        return f"WeylElement({self.system.family}, {word_name(self.word)})"


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
            for j in range(self.rank):
                gamma = simple_reflection(self.cartan, j, beta)
                if gamma[j] >= 0 and gamma not in found:  # < 0 only for beta = alpha_j
                    found[gamma] = self.left[self.mul[r][j]][j]
                    order.append(gamma)
        return tuple(found[line] for line in self.lines)

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
    return [WeylElement(rs, w, word) for w, word in enumerate(weyl_group(rs, cap).words)]


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
    return {WeylElement(rs, w, group.words[w])
            for w in group.closure([g.id for g in gens], cap)}


def reflections(rs: RootSystem) -> list[WeylElement]:
    """All reflections of the Weyl group, one per positive root line,
    sorted by line for determinism.  Words are canonical reduced words."""
    group = weyl_group(rs)
    return [WeylElement(rs, w, group.words[w]) for w in group.reflections]


def word_name(word: tuple[int, ...]) -> str:
    """Readable 1-based dotted name for a word; the identity is "e"."""
    return ".".join(str(i + 1) for i in word) if word else "e"
