"""Slow reference paths that faster code replaced, and defective data, for
the test files: the ones several files share, and the datum loader and
validator as they were before each record was checked in one pass.

The tests directory is on pytest's ``pythonpath`` (pyproject.toml), so
this module imports as ``references`` under every import mode.
"""

from __future__ import annotations

from fractions import Fraction

from weylorb.coxeter import RootSystemError, build_root_system, mat_apply
from weylorb.datum import (
    KINDS,
    ROLES,
    DatumFormatError,
    Orbit,
    OrbitDatum,
    RaiseCell,
    ValidationReport,
    Violation,
    _rref,
)

FLAG_TOKENS = ("A1", "A2", "A3", "B2", "BC2", "G2", "A1xA1")


# -- raise dims on every positive line, by a BFS over line orbits ------------


def is_nonneg(v) -> bool:
    return all(x >= 0 for x in v) and any(x != 0 for x in v)


def line_raises(rs, dims=None) -> dict[tuple, int]:
    """Reference: raise dims extended from the simple roots to every
    positive line by a breadth-first search over each Weyl orbit of lines,
    refusing dims (rs.raise_dims by default) that differ within an orbit."""
    dims = rs.raise_dims if dims is None else dims
    mats = [rs.simple_reflection(i).matrix for i in range(rs.rank)]
    line_set = set(rs.positive_lines)

    def to_line(v):
        if not is_nonneg(v):
            v = tuple(-x for x in v)
        if v not in line_set and all(x % 2 == 0 for x in v):
            v = tuple(x // 2 for x in v)
        return v

    classes: dict[tuple, set[tuple]] = {}
    assigned: dict[tuple, tuple] = {}
    for line in rs.positive_lines:
        if line in assigned:
            continue
        orbit = {line}
        frontier = [line]
        while frontier:
            nxt = []
            for v in frontier:
                for m in mats:
                    w = to_line(mat_apply(m, v))
                    if w not in orbit:
                        orbit.add(w)
                        nxt.append(w)
            frontier = nxt
        classes[line] = orbit
        for v in orbit:
            assigned[v] = line

    out: dict[tuple, int] = {}
    for rep, orbit in classes.items():
        ns = {dims[i] for i, sr in enumerate(rs.simple_roots) if sr in orbit}
        if not ns:
            raise RootSystemError("root line orbit without a simple root")
        if len(ns) > 1:
            raise RootSystemError(
                "raise dims must agree on Weyl-conjugate simple roots; "
                f"conflict {sorted(ns)} in the orbit of {rep}")
        n = ns.pop()
        for v in orbit:
            out[v] = n
    return out


# -- the string-keyed sigma index the int tables replaced ---------------------


def reference_membership(d: OrbitDatum) -> dict[tuple[int, str], tuple[RaiseCell, str]]:
    """(alpha, orbit id) -> (cell, role), the first hit on a defective partition."""
    index: dict[tuple[int, str], tuple[RaiseCell, str]] = {}
    for alpha, cells in d.cells.items():
        for cell in cells:
            for role, oid in zip(ROLES[cell.kind], cell.members()):
                index.setdefault((alpha, oid), (cell, role))
    return index


# -- defective data ----------------------------------------------------------


def braid_breaker() -> OrbitDatum:
    """A1xA1 datum whose sigmas generate a 3-cycle, violating m = 2."""
    rs = build_root_system("A1xA1")
    orbits = (Orbit("p", 3, 0, 0, 0, open=True),
              Orbit("q", 2, 0, 0, 0),
              Orbit("r", 1, 0, 0, 0))
    cells = {1: (RaiseCell(1, "U", y="p", z="q"), RaiseCell(1, "A", y="r")),
             2: (RaiseCell(2, "U", y="q", z="r"), RaiseCell(2, "A", y="p"))}
    return OrbitDatum(rs, orbits, cells)


def non_involution() -> OrbitDatum:
    """A1 datum whose open orbit sits in two U cells, so sigma_1 sends
    w to y and y to z: not an involution, with no braid pair to notice."""
    rs = build_root_system("A1")
    orbits = (Orbit("y", 1, 0, 0, 0, open=True),
              Orbit("z", 0, 0, 0, 0),
              Orbit("w", 0, 0, 0, 0))
    cells = {1: (RaiseCell(1, "U", y="y", z="z"), RaiseCell(1, "U", y="y", z="w"))}
    return OrbitDatum(rs, orbits, cells)


def partly_covered() -> OrbitDatum:
    """A1xA1 datum whose alpha-2 cells leave z uncovered."""
    return OrbitDatum(build_root_system("A1xA1"),
                      (Orbit("y", 1, 0, 0, 0, open=True), Orbit("z", 0, 0, 0, 0)),
                      {1: (RaiseCell(1, "U", y="y", z="z"),),
                       2: (RaiseCell(2, "A", y="y"),)})


def missing_alpha() -> OrbitDatum:
    """A1xA1 datum with no cells at all for alpha 2."""
    return OrbitDatum(build_root_system("A1xA1"),
                      (Orbit("y", 1, 0, 0, 0, open=True), Orbit("z", 0, 0, 0, 0)),
                      {1: (RaiseCell(1, "U", y="y", z="z"),)})


def tu_y_is_z1() -> OrbitDatum:
    """A1 datum with a TU cell whose y is also its z1: sigma reads the ids,
    so q goes to r although q's first role is y."""
    return OrbitDatum(build_root_system("A1"),
                      (Orbit("y", 2, 0, 0, 0, open=True), Orbit("q", 1, 0, 0, 0),
                       Orbit("r", 0, 0, 0, 0)),
                      {1: (RaiseCell(1, "TU", y="q", z1="q", z2="r"),
                           RaiseCell(1, "A", y="y"))})


#: A double-covered orbit, a partly covered alpha, a missing alpha, a
#: degenerate TU cell and a braid violation.
DEFECTIVE_CASES = [non_involution(), partly_covered(), missing_alpha(), tu_y_is_z1(),
                   braid_breaker()]


# -- the datum loader and validator with per-field helper calls ---------------

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


def reference_datum_from_obj(obj: dict) -> OrbitDatum:
    """The loader with one helper call per field, as it was before each
    record was checked in one pass."""
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


def reference_validate(d: OrbitDatum) -> ValidationReport:
    """validate as it was: each member through d.orbit, each cell's
    location formatted up front."""
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
        r = len(_rref([tuple(Fraction(x) for x in row) for row in o.lattice]))
        if r != o.rk:
            out.append(Violation("lattice-rank", o.id,
                                 f"lattice rank {r} != rk {o.rk}"))

    return ValidationReport(tuple(out))


def reference_check_lattices(d: OrbitDatum) -> ValidationReport:
    """check_lattices as it was: every cell walked, lattices or not."""
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


def _span_after(matrix, lattice):
    rows = []
    for row in lattice:
        rows.append(tuple(Fraction(sum(matrix[i][j] * row[j] for j in range(len(row))))
                          for i in range(len(matrix))))
    return _rref(list(rows))


def _span(lattice):
    return _rref([tuple(Fraction(x) for x in row) for row in lattice])
