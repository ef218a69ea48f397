"""Orbit data: finitely many orbit families with exact invariants.

An :class:`OrbitDatum` records, for one restricted root system, the set of
orbit families with their integer invariants (dim, c, rk, s, optional
character lattice) and, for every simple root alpha, a partition of the
orbit set into raise cells of the six kinds U, TU, A, RT, RI, N.  Each
kind constrains ranks and dimensions inside its cell and induces an
involution sigma(alpha, .) of the orbit set:

    U  : y <-> z          TU : y fixed, z1 <-> z2      A  : y fixed
    RT : y fixed, z1 <-> z2    RI : both fixed         N  : both fixed

The validator checks every cell constraint, open-orbit dominance in the
lexicographic (c, rk, s) order, and lattice ranks; it reports violations
as data instead of raising.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple

from . import InputError
from .coxeter import (
    RootSystem,
    RootSystemError,
    build_root_system,
    keyed_by_simple_root,
    rref,
    simple_reflection,
    weyl_group,
)

__all__ = [
    "KINDS", "DatumFormatError", "Orbit", "OrbitDatum", "RaiseCell",
    "ValidationReport", "Violation", "check_lattices", "datum_from_obj",
    "datum_to_obj", "dumps", "export_dot", "generate_flag_datum",
    "loads", "validate",
]


class CellKind(NamedTuple):
    """A cell kind's shape: its roles in serialization order, the member
    positions whose ids sigma_alpha swaps ((0, 0): it fixes all), its DOT
    edges between member positions in style (none: a comment naming y), and
    what point counts see: its class and roles, the kinds or members they
    cannot tell apart sharing one (RI and N; RT's z1 and z2)."""

    roles: tuple[str, ...]
    swap: tuple[int, int]
    edges: tuple[tuple[int, int], ...]
    style: str
    seen: tuple[str, tuple[str, ...]]


#: The six cell kinds and their shapes, the one table every layer reads.
KINDS = {
    "U": CellKind(("y", "z"), (0, 1), ((0, 1),), "solid", ("U", ("y", "z"))),
    "TU": CellKind(("y", "z1", "z2"), (1, 2), ((0, 1), (1, 2)), "solid",
                   ("TU", ("y", "z1", "z2"))),
    "A": CellKind(("y",), (0, 0), (), "", ("A", ("y",))),
    "RT": CellKind(("y", "z1", "z2"), (1, 2), ((0, 1), (0, 2)), "solid",
                   ("RT", ("y", "z", "z"))),
    "RI": CellKind(("y", "z"), (0, 0), ((0, 1),), "dotted", ("RI|N", ("y", "z"))),
    "N": CellKind(("y", "z"), (0, 0), ((0, 1),), "dotted", ("RI|N", ("y", "z"))),
}


_ARITY = {name: len(kind.roles) for name, kind in KINDS.items()}
_new = tuple.__new__  #: a record from all its fields, as NamedTuple._make minus a Python call
_members = attrgetter("members")


class DatumFormatError(InputError, ValueError):
    """Structurally malformed datum input, refused at load or construction."""


class Orbit(NamedTuple):
    id: str
    dim: int
    c: int
    rk: int
    s: int
    open: bool = False
    lattice: tuple[tuple[int, ...], ...] | None = None

    def invariants(self) -> tuple[int, int, int]:
        return (self.c, self.rk, self.s)


class RaiseCell(NamedTuple):
    """A cell of one simple root, which is its key in ``OrbitDatum.cells``:
    its kind and its member ids in the order of ``KINDS[kind].roles``."""

    kind: str
    members: tuple[str, ...]

    @property
    def y(self) -> str:
        return self.members[0]

    def image(self, m: str) -> str:
        """sigma_alpha of the member m: the ids at the kind's swap positions trade."""
        i, j = KINDS[self.kind].swap
        a, b = self.members[i], self.members[j]
        return b if m == a else a if m == b else m


class Violation(NamedTuple):
    code: str
    where: str
    message: str

    def line(self) -> str:
        return f"VIOLATION {self.code} at {self.where}: {self.message}"


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        if self.ok:
            return ["OK"]
        return [v.line() for v in self.violations]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v._asdict() for v in self.violations],
        }


class OrbitDatum:
    """Orbits sorted by (dim, id), and per simple root its cells sorted by y.

    The constructor is the one home of the structural rules: it refuses,
    with DatumFormatError naming the witness, what no layer could read.
    In this order: a cell of a kind not in :data:`KINDS` or with members
    that do not fill its kind's roles (per simple root in order, the first
    such cell), a repeated orbit id (the first orbit in (dim, id) order
    whose id an earlier orbit has), a lattice row whose length is not the
    rank (the first such orbit), and per simple root in order, a cell key
    outside 1..rank, then a cell member that is not an orbit id (the first
    in the cells sorted by y, in role order).
    """

    def __init__(self, root_system: RootSystem, orbits: tuple[Orbit, ...],
                 cells: dict[int, tuple[RaiseCell, ...]],
                 notes: tuple[str, ...] = ()) -> None:
        self.root_system, self.notes = root_system, notes
        for alpha, cs in sorted(cells.items()):
            for cell in cs:
                if len(cell.members) != _ARITY.get(cell.kind):
                    raise DatumFormatError(
                        f"alpha {alpha}: {cell!r} does not fill the roles of a kind in KINDS")
        self.orbits = tuple(sorted(orbits, key=attrgetter("dim", "id")))
        self.cells = {a: tuple(sorted(cs, key=attrgetter("y")))
                      for a, cs in sorted(cells.items())}
        #: Orbit id -> its index in ``orbit_ids()`` order.
        self.position = {o.id: i for i, o in enumerate(self.orbits)}
        if len(self.position) != len(self.orbits):
            seen: set[str] = set()
            for o in self.orbits:
                if o.id in seen:
                    raise DatumFormatError(f"duplicate orbit id {o.id!r}")
                seen.add(o.id)
        rank = root_system.rank
        for o in self.orbits:
            if o.lattice is not None and any(len(row) != rank for row in o.lattice):
                raise DatumFormatError(
                    f"orbit {o.id}: lattice ambient dimension differs from rank {rank}")
        known = self.position.__contains__
        for alpha, cs in self.cells.items():
            if not 1 <= alpha <= rank:
                raise DatumFormatError(
                    f"cells: simple root index {alpha} out of range 1..{rank}")
            if not all(map(known, chain.from_iterable(map(_members, cs)))):
                cell, m = next((c, m) for c in cs for m in c.members if not known(m))
                raise DatumFormatError(
                    f"alpha {alpha} cell y={cell.y}: unknown orbit id {m!r}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OrbitDatum)
                and self.root_system == other.root_system
                and self.orbits == other.orbits
                and self.cells == other.cells
                and self.notes == other.notes)

    def orbit(self, orbit_id: str) -> Orbit:
        try:
            return self.orbits[self.position[orbit_id]]
        except KeyError:
            raise DatumFormatError(f"unknown orbit id {orbit_id!r}") from None

    def orbit_ids(self) -> tuple[str, ...]:
        return tuple(o.id for o in self.orbits)

    def open_orbit(self) -> Orbit:
        opens = [o for o in self.orbits if o.open]
        if len(opens) != 1:
            raise DatumFormatError(f"expected exactly one open orbit, got {len(opens)}")
        return opens[0]

    @cached_property
    def involutions(self) -> dict[int, list[int]]:
        """Per simple root, sigma_alpha over positions, built on first use.

        sigma_alpha is defined by the alpha-cells only where they partition
        the orbits, so the first use refuses, alpha by alpha in basis
        order, the first orbit that the alpha-cells name other than once.
        """
        pos, n = self.position, len(self.orbits)
        out = {}
        for alpha in range(1, self.root_system.rank + 1):
            cells = self.cells.get(alpha, ())
            perm: list = [None] * n
            for cell in cells:
                for m in cell.members:
                    perm[pos[m]] = pos[cell.image(m)]
            # n names, none missing: each orbit is named exactly once
            if None in perm or sum(len(c.members) for c in cells) != n:
                named = Counter(chain.from_iterable(map(_members, cells)))
                o = next(o.id for o in self.orbits if named[o.id] != 1)
                raise DatumFormatError(
                    f"orbit {o!r} is not covered by any cell for alpha {alpha}"
                    if not named[o] else
                    f"orbit {o!r} is named {named[o]} times by the cells for alpha {alpha}")
            out[alpha] = perm
        return out

    def sigma(self, alpha: int, orbit_id: str) -> str:
        """Involution of the orbit set attached to the simple root alpha."""
        self.orbit(orbit_id)  # an unknown id raises
        perm = self.involutions.get(alpha)  # every alpha in 1..rank is a key
        if perm is None:
            raise DatumFormatError(
                f"simple root index {alpha} out of range 1..{self.root_system.rank}")
        return self.orbits[perm[self.position[orbit_id]]].id


# -- lattice spans, exactly over Q -------------------------------------------


def lattice_rank(lattice: tuple[tuple[int, ...], ...]) -> int:
    return len(_span(lattice))


def _span(lattice) -> list[list]:
    """The row span of an integer lattice, as an exact rational RREF."""
    from fractions import Fraction  # only lattice data make fractions
    return rref([list(map(Fraction, row)) for row in lattice],
                len(lattice[0]) if lattice else 0, lambda x: 1 / x)


# -- validation --------------------------------------------------------------


def validate(d: OrbitDatum) -> ValidationReport:
    """Check every cell invariant, open-orbit dominance, and lattice ranks.

    Returns a report; an empty violation list means the datum is valid.
    """
    out: list[Violation] = []
    rank = d.root_system.rank

    opens = [o for o in d.orbits if o.open]
    if len(opens) != 1:
        out.append(Violation("open-orbit", "datum",
                             f"expected exactly one open orbit, found {len(opens)}"))
    open_orbit = opens[0] if len(opens) == 1 else None
    if open_orbit is not None:
        for o in d.orbits:
            if o.id != open_orbit.id and o.dim >= open_orbit.dim:
                out.append(Violation(
                    "open-orbit", o.id,
                    f"dim {o.dim} not strictly below open orbit dim {open_orbit.dim}"))

    ids = d.orbit_ids()
    for alpha in range(1, rank + 1):
        members = list(chain.from_iterable(map(_members, d.cells.get(alpha, ()))))
        seen = set(members)
        missing = sorted(set(ids) - seen)
        extra = (sorted(m for m, k in Counter(members).items() if k > 1)
                 if len(seen) < len(members) else [])
        if missing:
            out.append(Violation("partition-defect", f"alpha {alpha}",
                                 f"orbits not covered: {', '.join(missing)}"))
        if extra:
            out.append(Violation("partition-defect", f"alpha {alpha}",
                                 f"orbits covered more than once: {', '.join(extra)}"))

    def bad(code: str, message: str) -> None:  # where: the current alpha and cell
        out.append(Violation(code, f"alpha {alpha} cell y={cell.y}", message))

    pos = d.position
    dim, rk, s = ([getattr(o, f) for o in d.orbits] for f in ("dim", "rk", "s"))
    for alpha, cells in d.cells.items():
        n_alpha = d.root_system.raise_dims[alpha - 1]
        for cell in cells:
            y, *zs = map(pos.__getitem__, cell.members)
            for m in zs:
                if dim[m] >= dim[y]:
                    bad("cell-y-not-max", f"{ids[m]} has dim {dim[m]} >= y dim {dim[y]}")
            kind = cell.kind
            if kind == "U":
                z = zs[0]
                if rk[z] != rk[y]:
                    bad("cell-U-rank", f"rk(z)={rk[z]} != rk(y)={rk[y]}")
                if s[z] != s[y]:
                    bad("cell-U-s", f"s(z)={s[z]} != s(y)={s[y]}")
                if dim[y] != dim[z] + n_alpha:
                    bad("cell-U-dim",
                        f"dim(y)={dim[y]} != dim(z)+n_alpha={dim[z]}+{n_alpha}")
            elif kind in ("TU", "RT"):
                z1, z2 = zs
                if not (rk[z1] == rk[z2] == rk[y] - 1):
                    bad(f"cell-{kind}-rank", f"rk(z1)={rk[z1]}, rk(z2)={rk[z2]}, "
                                             f"expected rk(y)-1={rk[y] - 1}")
                if kind == "TU" and s[z1] != s[z2]:
                    bad("cell-TU-s", f"s(z1)={s[z1]} != s(z2)={s[z2]}")
                if kind == "TU" and not (dim[y] > dim[z1] > dim[z2]):
                    bad("cell-TU-dim", "need dim(y) > dim(z1) > dim(z2), "
                                       f"got {dim[y]}, {dim[z1]}, {dim[z2]}")
                if kind == "RT" and dim[z1] != dim[z2]:
                    bad("cell-RT-dim", f"dim(z1)={dim[z1]} != dim(z2)={dim[z2]}")
            elif kind in ("RI", "N"):
                if rk[zs[0]] != rk[y] - 1:
                    bad(f"cell-{kind}-rank", f"rk(z)={rk[zs[0]]} != rk(y)-1={rk[y] - 1}")

    if open_orbit is not None:
        top = open_orbit.invariants()
        for o in d.orbits:
            if (o.c, o.rk, o.s) > top:
                out.append(Violation(
                    "lex-dominance", o.id,
                    f"(c,rk,s)={o.invariants()} exceeds open orbit {top}"))
            if o.c > open_orbit.c:
                out.append(Violation("complexity", o.id,
                                     f"c={o.c} exceeds open orbit c={open_orbit.c}"))

    for o in d.orbits:
        if o.lattice is None:
            continue
        r = lattice_rank(o.lattice)
        if r != o.rk:
            out.append(Violation("lattice-rank", o.id,
                                 f"lattice rank {r} != rk {o.rk}"))

    return ValidationReport(tuple(out))


def check_lattices(d: OrbitDatum) -> ValidationReport:
    """Check reflection compatibility of the lattice spans cell by cell.

    s_alpha must send the span of each member m to that of sigma_alpha(m)
    (:meth:`RaiseCell.image`), checked once per pair in member order: U
    moves span(y) to span(z); TU and RT fix span(y) and swap the z spans;
    A fixes span(y); RI and N fix both spans.  Cells with no lattice data
    are skipped; cells with partial data are reported.
    """
    out: list[Violation] = []
    if all(o.lattice is None for o in d.orbits):
        return ValidationReport(())

    cartan = d.root_system.cartan
    for alpha, cs in d.cells.items():
        for cell in cs:
            where = f"alpha {alpha} cell y={cell.y}"
            members = [d.orbit(m) for m in cell.members]
            have = [o for o in members if o.lattice is not None]
            if not have:
                continue
            if len(have) != len(members):
                out.append(Violation("lattice-partial", where,
                                     "partial lattice data in cell"))
                continue
            lat = {o.id: o.lattice for o in members}
            checked = set()
            for src in cell.members:
                dst = cell.image(src)
                if (src, dst) in checked:  # from its other end: s_alpha is an involution
                    continue
                checked.update(((src, dst), (dst, src)))
                s_src = [simple_reflection(cartan, alpha - 1, tuple(row)) for row in lat[src]]
                if _span(s_src) != _span(lat[dst]):
                    out.append(Violation(
                        f"lattice-span-{cell.kind}", where,
                        f"s_alpha * span(Lambda({src})) != span(Lambda({dst}))"))
    return ValidationReport(tuple(out))


# -- flag datum --------------------------------------------------------------


def generate_flag_datum(rs: RootSystem) -> OrbitDatum:
    """The full flag datum: one orbit per Weyl group element.

    Orbit ids are canonical reduced words; dim(w) is the sum of the raise
    dims over the letters of that word, which equals the sum over the
    inversion lines of w, as raise dims are constant on W-orbits of lines;
    every cell is a U cell pairing w with its raise partner; all c, rk, s
    are 0 and the longest element is the open orbit.

    >>> d = generate_flag_datum(build_root_system("A", 1, raise_dims=[3]))
    >>> sorted(o.dim for o in d.orbits)
    [0, 3]
    """
    group = weyl_group(rs)
    ids, dims = ["e"], [0]
    for w in range(1, len(group)):  # from the BFS parent p = w·s_i, word words[w][:-1]
        i = group.words[w][-1]
        p = group.mul[w][i]
        ids.append(f"{ids[p]}.{i + 1}" if p else str(i + 1))
        dims.append(dims[p] + rs.raise_dims[i])
    top = max(dims)
    orbits = [_new(Orbit, (oid, dim, 0, 0, 0, dim == top, None))
              for oid, dim in zip(ids, dims)]

    cells: dict[int, tuple[RaiseCell, ...]] = {}
    for i in range(rs.rank):
        cs = []
        for w, row in enumerate(group.left):
            p = row[i]  # s_i·w; each pair once, from its first member in BFS order
            if p > w:
                y, z = (w, p) if dims[w] > dims[p] else (p, w)
                cs.append(_new(RaiseCell, ("U", (ids[y], ids[z]))))
        cells[i + 1] = tuple(cs)
    return OrbitDatum(root_system=rs, orbits=orbits, cells=cells)


# -- serialization -----------------------------------------------------------

_ORBIT_KEYS = {"id", "dim", "c", "rk", "s", "open", "lattice"}
_CELL_KEYS = {name: {"kind", *kind.roles} for name, kind in KINDS.items()}
_TOP_KEYS = {"root_system", "orbits", "cells", "notes"}
_RS_KEYS = {"family", "rank", "raise_dims"}


def _unknown_fields(obj: dict, allowed: set[str], where: str) -> DatumFormatError:
    unknown = ", ".join(sorted(set(obj) - allowed))
    return DatumFormatError(f"{where}: unknown field(s) {unknown}")


def datum_to_obj(d: OrbitDatum) -> dict:
    orbits = []
    for o in d.orbits:
        entry: dict = {"id": o.id, "dim": o.dim, "c": o.c, "rk": o.rk,
                       "s": o.s, "open": o.open}
        if o.lattice is not None:
            entry["lattice"] = [list(row) for row in o.lattice]
        orbits.append(entry)
    cells = {str(alpha): [{"kind": c.kind, **dict(zip(KINDS[c.kind].roles, c.members))}
                          for c in cs] for alpha, cs in sorted(d.cells.items())}
    obj = {
        "root_system": {
            "family": d.root_system.family,
            "rank": d.root_system.rank,
            "raise_dims": list(d.root_system.raise_dims),
        },
        "orbits": orbits,
        "cells": cells,
    }
    if d.notes:
        obj["notes"] = list(d.notes)
    return obj


def _block(items, indent: int, brackets: str = "[]") -> str:
    """A JSON array, or with brackets "{}" an object, of already encoded
    items (values, or "key": value members), laid out as indent=2 does."""
    pad = "\n" + " " * (indent + 2)
    body = ("," + pad).join(items)
    return f"{brackets[0]}{pad}{body}\n{' ' * indent}{brackets[1]}" if body else brackets


# Each template lists its record's keys in the order sort_keys gives them.
_ORBIT = ('{\n      "c": %d,\n      "dim": %d,\n      "id": %s,\n%s'
          '      "open": %s,\n      "rk": %d,\n      "s": %d\n    }')
_CELL = {name: '{\n        "kind": "%s"' % name
         + "".join(f',\n        "{role}": %s' for role in kind.roles) + "\n      }"
         for name, kind in KINDS.items()}


def dumps(d: OrbitDatum) -> str:
    """Deterministic serialization: sorted keys, sorted orbit lists.

    The bytes of ``json.dumps(datum_to_obj(d), indent=2, sort_keys=True)``
    and a newline, written record by record from fixed templates.
    """
    q = encode_basestring_ascii
    orbits = [_ORBIT % (
        o.c, o.dim, q(o.id),
        "" if o.lattice is None else '      "lattice": %s,\n' % _block(
            [_block(map(str, row), 8) for row in o.lattice], 6),
        "true" if o.open else "false", o.rk, o.s) for o in d.orbits]
    # sort_keys orders the cell keys as strings: "10" before "2"
    cells = [f'"{alpha}": ' + _block([_CELL[c.kind] % tuple(map(q, c.members))
                                      for c in cs], 4)
             for alpha, cs in sorted(d.cells.items(), key=lambda kv: str(kv[0]))]
    rs = d.root_system
    top = [f'"cells": {_block(cells, 2, "{}")}']
    if d.notes:
        top.append(f'"notes": {_block(map(q, d.notes), 2)}')
    top.append(f'"orbits": {_block(orbits, 2)}')
    top.append('"root_system": ' + _block(
        [f'"family": {q(rs.family)}',
         f'"raise_dims": {_block(map(str, rs.raise_dims), 4)}',
         f'"rank": {rs.rank}'], 2, "{}"))
    return _block(top, 0, "{}") + "\n"


def datum_from_obj(obj: dict) -> OrbitDatum:
    """The datum of a parsed JSON object, refusing the first malformed field.

    A check of JSON shape only: each orbit and cell record is checked with
    one key-set comparison and exact type tests, and the error text names
    the record and field.  Two cell keys naming one simple root ("1" and
    "01") are refused here, as the datum keeps one cell list per root.  Every
    structural rule (repeated ids, cell key range, members that are not
    orbit ids) is the :class:`OrbitDatum` constructor's, checked once
    after every shape check has passed."""
    if not isinstance(obj, dict):
        raise DatumFormatError("datum must be a JSON object")
    if not obj.keys() <= _TOP_KEYS:
        raise _unknown_fields(obj, _TOP_KEYS, "datum")
    for key in ("root_system", "orbits", "cells"):
        if key not in obj:
            raise DatumFormatError(f"datum: missing field {key!r}")

    rs_obj = obj["root_system"]
    if not isinstance(rs_obj, dict):
        raise DatumFormatError("root_system must be an object")
    if not rs_obj.keys() <= _RS_KEYS:
        raise _unknown_fields(rs_obj, _RS_KEYS, "root_system")
    family, rank, dims = rs_obj.get("family", ""), rs_obj.get("rank"), rs_obj.get("raise_dims")
    if type(family) is not str:
        raise DatumFormatError("root_system: family must be a non-empty string")
    if rank is not None and type(rank) is not int:
        raise DatumFormatError("root_system: rank must be an integer")
    if dims is not None and (type(dims) is not list or any(type(n) is not int for n in dims)):
        raise DatumFormatError("root_system: raise_dims must be a list of integers >= 1")
    try:
        rs = build_root_system(family, rank, raise_dims=dims)
    except RootSystemError as exc:
        raise DatumFormatError(f"root_system: {exc}") from exc

    if not isinstance(obj["orbits"], list) or not obj["orbits"]:
        raise DatumFormatError("orbits must be a non-empty list")
    orbits = []
    for i, entry in enumerate(obj["orbits"]):
        if type(entry) is not dict:
            raise DatumFormatError(f"orbits[{i}]: must be an object")
        if not entry.keys() <= _ORBIT_KEYS:
            raise _unknown_fields(entry, _ORBIT_KEYS, f"orbits[{i}]")
        oid = entry.get("id")
        if type(oid) is not str or not oid:
            raise DatumFormatError(f"orbits[{i}]: id must be a non-empty string")
        lattice = None
        if "lattice" in entry:
            raw = entry["lattice"]
            if (type(raw) is not list or any(type(row) is not list for row in raw)
                    or any(type(x) is not int for row in raw for x in row)):
                raise DatumFormatError(f"orbits[{i}]: lattice must be a list of integer rows")
            lattice = tuple(map(tuple, raw))
        is_open = entry.get("open", False)
        if type(is_open) is not bool:
            raise DatumFormatError(f"orbits[{i}]: open must be a boolean")
        dim, c, rk, s = entry.get("dim"), entry.get("c"), entry.get("rk"), entry.get("s")
        if not (type(dim) is type(c) is type(rk) is type(s) is int
                and dim >= 0 and c >= 0 and rk >= 0 and s >= 0):
            key = next(k for k in ("dim", "c", "rk", "s")
                       if type(entry.get(k)) is not int or entry[k] < 0)
            raise DatumFormatError(f"orbits[{i}]: field {key!r} must be an integer >= 0")
        orbits.append(_new(Orbit, (oid, dim, c, rk, s, is_open, lattice)))

    cells_obj = obj["cells"]
    if not isinstance(cells_obj, dict):
        raise DatumFormatError("cells must be an object keyed by simple root index")
    cells: dict[int, tuple[RaiseCell, ...]] = {}
    for alpha, key, raw_cells in keyed_by_simple_root(cells_obj, DatumFormatError, "cells"):
        if not isinstance(raw_cells, list):
            raise DatumFormatError(f"cells[{key}] must be a list")
        parsed = []
        for j, c in enumerate(raw_cells):
            if type(c) is not dict:
                raise DatumFormatError(f"cells[{key}][{j}]: must be an object")
            name = c.get("kind")
            kind = KINDS.get(name) if type(name) is str else None
            if kind is None:
                raise DatumFormatError(f"cells[{key}][{j}]: unknown kind {name!r}")
            if not c.keys() <= _CELL_KEYS[name]:
                raise _unknown_fields(c, _CELL_KEYS[name], f"cells[{key}][{j}]")
            members = tuple(map(c.get, kind.roles))
            try:
                "".join(members)  # TypeError unless every role value is a string
            except TypeError:
                role = next(r for r, v in zip(kind.roles, members) if type(v) is not str)
                raise DatumFormatError(f"cells[{key}][{j}]: missing role {role!r}") from None
            parsed.append(_new(RaiseCell, (name, members)))
        cells[alpha] = tuple(parsed)

    notes = obj.get("notes", [])
    if (not isinstance(notes, list)
            or any(not isinstance(x, str) for x in notes)):
        raise DatumFormatError("notes must be a list of strings")

    return OrbitDatum(root_system=rs, orbits=tuple(orbits), cells=cells,
                      notes=tuple(notes))


def loads(text: str) -> OrbitDatum:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past 4,300 digits
        raise DatumFormatError(f"not valid JSON: {exc}") from exc
    return datum_from_obj(obj)


# -- DOT export --------------------------------------------------------------

#: DOT escapes for text inside a quoted string or a ``//`` comment line.
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def export_dot(d: OrbitDatum) -> str:
    """Deterministic Graphviz DOT text for the raise structure.

    Nodes are labeled ``id (dim|c,rk,s)``; each cell's edges and their
    style are its kind's in :data:`KINDS`: U and TU chains appear as
    directed raise edges (y -> z, and z1 -> z2 for TU), RT as two raise
    edges, RI and N as dotted pairing edges, and A cells as comments.
    Orbit ids are written with backslash, double quote and newline
    escaped, so that no id ends a quoted string or a comment line.
    """
    lines = ["digraph orbit_datum {"]
    lines.append(f"  // root_system: {d.root_system.to_text()}")
    lines.append("  node [shape=box];")
    for o in d.orbits:
        oid = o.id.translate(_DOT_ESCAPES)
        lines.append(f'  "{oid}" [label="{oid} ({o.dim}|{o.c},{o.rk},{o.s})"];')
    for alpha, cells in sorted(d.cells.items()):
        for cell in cells:
            tag, kind = f"a{alpha} {cell.kind}", KINDS[cell.kind]
            ids = [m.translate(_DOT_ESCAPES) for m in cell.members]
            if not kind.edges:
                lines.append(f"  // {tag} {{{ids[0]}}}")
            lines.extend(f'  "{ids[i]}" -> "{ids[j]}" [label="{tag}", style={kind.style}];'
                         for i, j in kind.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
