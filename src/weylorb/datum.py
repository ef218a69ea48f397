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
from functools import cached_property
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .coxeter import (
    RootSystem,
    RootSystemError,
    build_root_system,
    weyl_group,
    word_name,
)

__all__ = [
    "KINDS", "DatumFormatError", "Orbit", "OrbitDatum", "RaiseCell",
    "ValidationReport", "Violation", "check_lattices", "datum_from_obj",
    "datum_to_obj", "dumps", "export_dot", "generate_flag_datum",
    "load_path", "loads", "validate",
]

KINDS = ("U", "TU", "A", "RT", "RI", "N")

#: Member roles carried by each cell kind, in serialization order.
ROLES = {
    "U": ("y", "z"),
    "TU": ("y", "z1", "z2"),
    "A": ("y",),
    "RT": ("y", "z1", "z2"),
    "RI": ("y", "z"),
    "N": ("y", "z"),
}


class DatumFormatError(ValueError):
    """Structurally malformed datum input (parse-level rejection)."""


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
    alpha: int  # 1-based simple root index
    kind: str
    y: str
    z: str | None = None
    z1: str | None = None
    z2: str | None = None

    def members(self) -> tuple[str, ...]:
        """The member ids, in the order of ``ROLES[self.kind]``."""
        if self.kind in ("TU", "RT"):
            return (self.y, self.z1, self.z2)
        return (self.y,) if self.kind == "A" else (self.y, self.z)


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
    """Orbits sorted by (dim, id), and per simple root its cells sorted by y."""

    def __init__(self, root_system: RootSystem, orbits: tuple[Orbit, ...],
                 cells: dict[int, tuple[RaiseCell, ...]],
                 notes: tuple[str, ...] = ()) -> None:
        self.root_system, self.notes = root_system, notes
        self.orbits = tuple(sorted(orbits, key=lambda o: (o.dim, o.id)))
        self.cells = {a: tuple(sorted(cs, key=lambda c: c.y))
                      for a, cs in sorted(cells.items())}
        self._by_id = {o.id: o for o in self.orbits}
        if len(self._by_id) != len(self.orbits):
            raise DatumFormatError("duplicate orbit ids")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OrbitDatum)
                and self.root_system == other.root_system
                and self.orbits == other.orbits
                and self.cells == other.cells
                and self.notes == other.notes)

    def orbit(self, orbit_id: str) -> Orbit:
        try:
            return self._by_id[orbit_id]
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
    def position(self) -> dict[str, int]:
        """Orbit id -> its index in ``orbit_ids()`` order."""
        return {o.id: i for i, o in enumerate(self.orbits)}

    @cached_property
    def involutions(self) -> dict[int, list[int | None]]:
        """Per simple root, and per other key of ``cells``, sigma_alpha over
        positions, None where no alpha-cell covers the orbit; the first cell
        wins on a defective partition.  Built on first use, with position."""
        pos = self.position
        out = {}
        for alpha in sorted({*range(1, self.root_system.rank + 1), *self.cells}):
            perm: list[int | None] = [None] * len(self.orbits)
            for cell in self.cells.get(alpha, ()):
                # U swaps y and z, TU and RT swap z1 and z2, the rest fix all
                a, b = (cell.y, cell.z) if cell.kind == "U" else (cell.z1, cell.z2)
                for m in cell.members():
                    if perm[pos[m]] is None:
                        perm[pos[m]] = pos[b if m == a else a if m == b else m]
            out[alpha] = perm
        return out

    def sigma(self, alpha: int, orbit_id: str) -> str:
        """Involution of the orbit set attached to the simple root alpha."""
        self.orbit(orbit_id)  # an unknown id raises
        perm = self.involutions.get(alpha)
        j = None if perm is None else perm[self.position[orbit_id]]
        if j is None:
            raise DatumFormatError(
                f"orbit {orbit_id!r} is not covered by any cell for alpha {alpha}")
        return self.orbits[j].id


# -- exact linear algebra over Q --------------------------------------------


def _rref(rows: list[tuple[Fraction, ...]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form over Q; canonical for span comparison."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivots, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[pivots], mat[pivot] = mat[pivot], mat[pivots]
        pv = mat[pivots][col]
        mat[pivots] = [x / pv for x in mat[pivots]]
        for r in range(len(mat)):
            if r != pivots and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[pivots])]
        pivots += 1
    return tuple(tuple(row) for row in mat[:pivots])


def lattice_rank(lattice: tuple[tuple[int, ...], ...]) -> int:
    return len(_rref([tuple(Fraction(x) for x in row) for row in lattice]))


def _span_after(matrix, lattice) -> tuple[tuple[Fraction, ...], ...]:
    rows = []
    for row in lattice:
        rows.append(tuple(Fraction(sum(matrix[i][j] * row[j] for j in range(len(row))))
                          for i in range(len(matrix))))
    return _rref(list(rows))


def _span(lattice) -> tuple[tuple[Fraction, ...], ...]:
    return _rref([tuple(Fraction(x) for x in row) for row in lattice])


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

    ids = set(d.orbit_ids())
    for alpha in range(1, rank + 1):
        seen: dict[str, int] = {}
        for cell in d.cells.get(alpha, ()):
            for m in cell.members():
                seen[m] = seen.get(m, 0) + 1
        missing = sorted(ids - set(seen))
        extra = sorted(m for m, k in seen.items() if k > 1)
        if missing:
            out.append(Violation("partition-defect", f"alpha {alpha}",
                                 f"orbits not covered: {', '.join(missing)}"))
        if extra:
            out.append(Violation("partition-defect", f"alpha {alpha}",
                                 f"orbits covered more than once: {', '.join(extra)}"))
    for alpha in d.cells:
        if not 1 <= alpha <= rank:
            out.append(Violation("partition-defect", f"alpha {alpha}",
                                 f"no simple root with index {alpha} (rank {rank})"))

    for alpha, cells in d.cells.items():
        if not 1 <= alpha <= len(d.root_system.raise_dims):
            continue
        n_alpha = d.root_system.raise_dims[alpha - 1]
        for cell in cells:
            where = f"alpha {alpha} cell y={cell.y}"
            try:
                members = [d.orbit(m) for m in cell.members()]
            except DatumFormatError:
                out.append(Violation("partition-defect", where,
                                     "cell references an unknown orbit id"))
                continue
            y = members[0]
            for m in members[1:]:
                if m.dim >= y.dim:
                    out.append(Violation(
                        "cell-y-not-max", where,
                        f"{m.id} has dim {m.dim} >= y dim {y.dim}"))
            if cell.kind == "U":
                z = d.orbit(cell.z)
                if z.rk != y.rk:
                    out.append(Violation("cell-U-rank", where,
                                         f"rk(z)={z.rk} != rk(y)={y.rk}"))
                if z.s != y.s:
                    out.append(Violation("cell-U-s", where,
                                         f"s(z)={z.s} != s(y)={y.s}"))
                if y.dim != z.dim + n_alpha:
                    out.append(Violation(
                        "cell-U-dim", where,
                        f"dim(y)={y.dim} != dim(z)+n_alpha={z.dim}+{n_alpha}"))
            elif cell.kind == "TU":
                z1, z2 = d.orbit(cell.z1), d.orbit(cell.z2)
                if not (z1.rk == z2.rk == y.rk - 1):
                    out.append(Violation(
                        "cell-TU-rank", where,
                        f"rk(z1)={z1.rk}, rk(z2)={z2.rk}, expected rk(y)-1={y.rk - 1}"))
                if z1.s != z2.s:
                    out.append(Violation("cell-TU-s", where,
                                         f"s(z1)={z1.s} != s(z2)={z2.s}"))
                if not (y.dim > z1.dim > z2.dim):
                    out.append(Violation(
                        "cell-TU-dim", where,
                        f"need dim(y) > dim(z1) > dim(z2), got {y.dim}, {z1.dim}, {z2.dim}"))
            elif cell.kind == "RT":
                z1, z2 = d.orbit(cell.z1), d.orbit(cell.z2)
                if not (z1.rk == z2.rk == y.rk - 1):
                    out.append(Violation(
                        "cell-RT-rank", where,
                        f"rk(z1)={z1.rk}, rk(z2)={z2.rk}, expected rk(y)-1={y.rk - 1}"))
                if z1.dim != z2.dim:
                    out.append(Violation("cell-RT-dim", where,
                                         f"dim(z1)={z1.dim} != dim(z2)={z2.dim}"))
            elif cell.kind in ("RI", "N"):
                z = d.orbit(cell.z)
                if z.rk != y.rk - 1:
                    out.append(Violation(
                        f"cell-{cell.kind}-rank", where,
                        f"rk(z)={z.rk} != rk(y)-1={y.rk - 1}"))

    if open_orbit is not None:
        top = open_orbit.invariants()
        for o in d.orbits:
            if o.invariants() > top:
                out.append(Violation(
                    "lex-dominance", o.id,
                    f"(c,rk,s)={o.invariants()} exceeds open orbit {top}"))
            if o.c > open_orbit.c:
                out.append(Violation("complexity", o.id,
                                     f"c={o.c} exceeds open orbit c={open_orbit.c}"))

    for o in d.orbits:
        if o.lattice is None:
            continue
        if any(len(row) != rank for row in o.lattice):
            out.append(Violation("lattice-ambient", o.id,
                                 f"lattice rows must have length {rank}"))
            continue
        r = lattice_rank(o.lattice)
        if r != o.rk:
            out.append(Violation("lattice-rank", o.id,
                                 f"lattice rank {r} != rk {o.rk}"))

    return ValidationReport(tuple(out))


def check_lattices(d: OrbitDatum) -> ValidationReport:
    """Check reflection compatibility of the lattice spans cell by cell.

    Rules per kind: U moves span(y) to span(z); TU and RT fix span(y) and
    swap the z spans; A fixes span(y); RI and N fix both spans.  Cells
    with no lattice data are skipped; cells with partial data are
    reported.
    """
    out: list[Violation] = []
    rank = d.root_system.rank
    for o in d.orbits:
        if o.lattice is not None and any(len(row) != rank for row in o.lattice):
            raise DatumFormatError(
                f"orbit {o.id}: lattice ambient dimension differs from rank {rank}")

    for alpha, cells in sorted(d.cells.items()):
        if not 1 <= alpha <= rank:
            continue
        s_mat = d.root_system.simple_reflection(alpha - 1).matrix
        for cell in cells:
            where = f"alpha {alpha} cell y={cell.y}"
            members = [d.orbit(m) for m in cell.members()]
            have = [o for o in members if o.lattice is not None]
            if not have:
                continue
            if len(have) != len(members):
                out.append(Violation("lattice-partial", where,
                                     "partial lattice data in cell"))
                continue
            lat = {o.id: o.lattice for o in members}
            y = cell.y

            def moved(i):
                return _span_after(s_mat, lat[i])

            checks: list[tuple[str, str, str]] = []
            if cell.kind == "U":
                checks.append(("U", y, cell.z))
            elif cell.kind in ("TU", "RT"):
                checks.append((cell.kind, y, y))
                checks.append((cell.kind, cell.z1, cell.z2))
            elif cell.kind == "A":
                checks.append(("A", y, y))
            else:  # RI, N
                checks.append((cell.kind, y, y))
                checks.append((cell.kind, cell.z, cell.z))
            for kind, src, dst in checks:
                if moved(src) != _span(lat[dst]):
                    out.append(Violation(
                        f"lattice-span-{kind}", where,
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
    ids = [word_name(word) for word in group.words]
    dims = [sum(rs.raise_dims[i] for i in word) for word in group.words]
    top = max(dims)
    orbits = tuple(Orbit(id=oid, dim=dim, c=0, rk=0, s=0, open=dim == top)
                   for oid, dim in zip(ids, dims))

    cells: dict[int, tuple[RaiseCell, ...]] = {}
    for i in range(rs.rank):
        cs = []
        for w, row in enumerate(group.left):
            p = row[i]  # s_i·w; each pair once, from its first member in BFS order
            if p > w:
                y, z = (w, p) if dims[w] > dims[p] else (p, w)
                cs.append(RaiseCell(alpha=i + 1, kind="U", y=ids[y], z=ids[z]))
        cells[i + 1] = tuple(cs)
    return OrbitDatum(root_system=rs, orbits=orbits, cells=cells)


# -- serialization -----------------------------------------------------------

_ORBIT_KEYS = {"id", "dim", "c", "rk", "s", "open", "lattice"}
_TOP_KEYS = {"root_system", "orbits", "cells", "notes"}
_RS_KEYS = {"family", "rank", "raise_dims"}


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DatumFormatError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _int_field(obj: dict, key: str, where: str, minimum: int = 0) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise DatumFormatError(f"{where}: field {key!r} must be an integer >= {minimum}")
    return v


def datum_to_obj(d: OrbitDatum) -> dict:
    orbits = []
    for o in d.orbits:
        entry: dict = {"id": o.id, "dim": o.dim, "c": o.c, "rk": o.rk,
                       "s": o.s, "open": o.open}
        if o.lattice is not None:
            entry["lattice"] = [list(row) for row in o.lattice]
        orbits.append(entry)
    cells = {}
    for alpha, cs in sorted(d.cells.items()):
        cells[str(alpha)] = [
            {"kind": c.kind, **{role: getattr(c, role) for role in ROLES[c.kind]}}
            for c in cs
        ]
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
_CELL = {kind: '{\n        "kind": "%s"' % kind
         + "".join(f',\n        "{role}": %s' for role in roles) + "\n      }"
         for kind, roles in ROLES.items()}


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
    cells = [f'"{alpha}": ' + _block([_CELL[c.kind] % tuple(map(q, c.members()))
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
    if not isinstance(obj, dict):
        raise DatumFormatError("datum must be a JSON object")
    _require_keys(obj, _TOP_KEYS, "datum")
    for key in ("root_system", "orbits", "cells"):
        if key not in obj:
            raise DatumFormatError(f"datum: missing field {key!r}")

    rs_obj = obj["root_system"]
    if not isinstance(rs_obj, dict):
        raise DatumFormatError("root_system must be an object")
    _require_keys(rs_obj, _RS_KEYS, "root_system")
    try:
        rs = build_root_system(
            rs_obj.get("family", ""),
            rs_obj.get("rank"),
            raise_dims=rs_obj.get("raise_dims"),
        )
    except RootSystemError as exc:
        raise DatumFormatError(f"root_system: {exc}") from exc

    if not isinstance(obj["orbits"], list) or not obj["orbits"]:
        raise DatumFormatError("orbits must be a non-empty list")
    orbits = []
    for i, entry in enumerate(obj["orbits"]):
        where = f"orbits[{i}]"
        if not isinstance(entry, dict):
            raise DatumFormatError(f"{where}: must be an object")
        _require_keys(entry, _ORBIT_KEYS, where)
        oid = entry.get("id")
        if not isinstance(oid, str) or not oid:
            raise DatumFormatError(f"{where}: id must be a non-empty string")
        lattice = None
        if "lattice" in entry:
            raw = entry["lattice"]
            if (not isinstance(raw, list)
                    or any(not isinstance(row, list) for row in raw)
                    or any(not isinstance(x, int) or isinstance(x, bool)
                           for row in raw for x in row)):
                raise DatumFormatError(f"{where}: lattice must be a list of integer rows")
            lattice = tuple(tuple(row) for row in raw)
        is_open = entry.get("open", False)
        if not isinstance(is_open, bool):
            raise DatumFormatError(f"{where}: open must be a boolean")
        orbits.append(Orbit(
            id=oid,
            dim=_int_field(entry, "dim", where),
            c=_int_field(entry, "c", where),
            rk=_int_field(entry, "rk", where),
            s=_int_field(entry, "s", where),
            open=is_open,
            lattice=lattice,
        ))
    ids = {o.id for o in orbits}
    if len(ids) != len(orbits):
        raise DatumFormatError("orbits: duplicate ids")

    cells_obj = obj["cells"]
    if not isinstance(cells_obj, dict):
        raise DatumFormatError("cells must be an object keyed by simple root index")
    cells: dict[int, tuple[RaiseCell, ...]] = {}
    for key, raw_cells in cells_obj.items():
        try:
            alpha = int(key)
        except (TypeError, ValueError):
            raise DatumFormatError(f"cells: bad simple root key {key!r}") from None
        if not 1 <= alpha <= rs.rank:
            raise DatumFormatError(
                f"cells: simple root index {alpha} out of range 1..{rs.rank}")
        if alpha in cells:
            first = next(k for k in cells_obj if int(k) == alpha)
            raise DatumFormatError(
                f"cells: keys {first!r} and {key!r} both name simple root {alpha}")
        if not isinstance(raw_cells, list):
            raise DatumFormatError(f"cells[{key}] must be a list")
        parsed = []
        for j, c in enumerate(raw_cells):
            where = f"cells[{key}][{j}]"
            if not isinstance(c, dict):
                raise DatumFormatError(f"{where}: must be an object")
            kind = c.get("kind")
            if kind not in KINDS:
                raise DatumFormatError(f"{where}: unknown kind {kind!r}")
            _require_keys(c, {"kind", *ROLES[kind]}, where)
            roles = {}
            for role in ROLES[kind]:
                v = c.get(role)
                if not isinstance(v, str):
                    raise DatumFormatError(f"{where}: missing role {role!r}")
                if v not in ids:
                    raise DatumFormatError(f"{where}: unknown orbit id {v!r}")
                roles[role] = v
            parsed.append(RaiseCell(alpha=alpha, kind=kind, **roles))
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
    except json.JSONDecodeError as exc:
        raise DatumFormatError(f"not valid JSON: {exc}") from exc
    return datum_from_obj(obj)


def load_path(path) -> OrbitDatum:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# -- DOT export --------------------------------------------------------------

_EDGE_STYLE = {"U": "solid", "TU": "solid", "RT": "solid",
               "RI": "dotted", "N": "dotted"}


def export_dot(d: OrbitDatum) -> str:
    """Deterministic Graphviz DOT text for the raise structure.

    Nodes are labeled ``id (dim|c,rk,s)``; U and TU chains appear as
    directed raise edges (y -> z, and z1 -> z2 for TU), RT as two raise
    edges, RI and N as dotted pairing edges, and A cells as comments.
    """
    lines = ["digraph orbit_datum {"]
    lines.append(f"  // root_system: {d.root_system.to_text()}")
    lines.append("  node [shape=box];")
    for o in d.orbits:
        label = f"{o.id} ({o.dim}|{o.c},{o.rk},{o.s})"
        lines.append(f'  "{o.id}" [label="{label}"];')
    for alpha, cells in sorted(d.cells.items()):
        for cell in cells:
            tag = f"a{alpha} {cell.kind}"
            style = _EDGE_STYLE.get(cell.kind)
            if cell.kind == "U":
                edges = [(cell.y, cell.z)]
            elif cell.kind == "TU":
                edges = [(cell.y, cell.z1), (cell.z1, cell.z2)]
            elif cell.kind == "RT":
                edges = [(cell.y, cell.z1), (cell.y, cell.z2)]
            elif cell.kind in ("RI", "N"):
                edges = [(cell.y, cell.z)]
            else:  # A
                lines.append(f"  // {tag} {{{cell.y}}}")
                continue
            for src, dst in edges:
                lines.append(
                    f'  "{src}" -> "{dst}" [label="{tag}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
