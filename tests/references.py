"""Slow reference paths that faster code replaced, and defective data, for
the test files: the ones several files share, the datum loader and
validator as they were before each record was checked in one pass, sigma,
the Hecke columns and the lattice checks as per-kind branches before
:meth:`RaiseCell.image` stated the cell rule once, the lattice spans'
elimination over Q before the oracle's inverses mod q shared it, the cell
record with one field per role and its ``members()``, ``image()`` and DOT
edges as kind branches before ``datum.KINDS`` held each kind's shape, the
Weyl group as integer matrices found by a matrix BFS, the model that
:class:`weylorb.coxeter.WeylGroup`'s tables replaced, the Hecke module on
packed ints (bit i for basis position i) with its word-by-word T_w, the
oracle's spec loader and monomial fit as they were before exact type
tests and the integer fit, the closure of all of H that the oracle
made before it read |H| off H's row-stabilizer chain, its certificate
H <= G as a set of |G ∩ H| matrices before it grew G ∩ H on a chain too,
and its orbits as it formed them before it recorded each generator's
point permutation;
and the oracle specs and strategies that tests/test_oracle.py and
tests/test_oracle_numpy.py both build.

The tests directory is on pytest's ``pythonpath`` (pyproject.toml), so
this module imports as ``references`` under every import mode.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct
from math import isqrt
from typing import NamedTuple

from hypothesis import assume
from hypothesis import strategies as st

from weylorb.bundled import ORACLE_SPEC_NAMES, oracle_spec_text
from weylorb.coxeter import (
    RootSystemError,
    WeylElement,
    _check_raise_dims,
    braid_order,
    build_root_system,
    enumerate_group,
    orbit_closure,
)
from weylorb.datum import (
    DatumFormatError,
    Orbit,
    OrbitDatum,
    RaiseCell,
    ValidationReport,
    Violation,
)
from weylorb.hecke import (
    HeckeBraidViolation,
    HeckeError,
    HeckeModule,
    HeckeReport,
    RegularRepReport,
    apply,
)
from weylorb.oracle import (
    _FIT_EXPONENT_BOUND,
    MatGroupSpec,
    OracleError,
    OracleReport,
    OrbitInfo,
    _arith,
    _Arith,
    _canon,
    _Chain,
    _flat,
    _fmt_matrix,
    _inv_mod,
    _is_prime,
    _Level,
)

FLAG_TOKENS = ("A1", "A2", "A3", "B2", "BC2", "G2", "A1xA1")


# -- the Weyl group as integer matrices ---------------------------------------


def mat_identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: tuple, b: tuple) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def mat_apply(m: tuple, v: tuple) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def simple_matrix(rs, i: int) -> tuple:
    """Matrix of s_i read off the Cartan matrix: s_i(alpha_j) =
    alpha_j - C[i][j] alpha_i, so only row i differs from the identity."""
    return tuple(tuple(int(r == j) - (rs.cartan[i][j] if r == i else 0)
                       for j in range(rs.rank))
                 for r in range(rs.rank))


def simple_element(rs, i: int) -> WeylElement:
    """The handle on s_i: the shortlex BFS meets s_0, ..., s_{r-1} right
    after the identity, as ids 1, ..., r."""
    return WeylElement(rs, i + 1, (i,))


def element_matrix(w: WeylElement) -> tuple:
    """The integer matrix of a handle, read off the matrix BFS by id."""
    return matrix_bfs(w.system)[w.id][0]


@lru_cache(maxsize=None)
def matrix_bfs(rs) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
    """(matrix, word) of every element in shortlex BFS order, each found as
    a tuple-matrix product w·s_i; the position of an element is its id."""
    gens = [simple_matrix(rs, i) for i in range(rs.rank)]
    e = mat_identity(rs.rank)
    seen = {e}
    order = [(e, ())]
    for m, word in order:  # order grows as the BFS discovers elements
        for i, g in enumerate(gens):
            p = mat_mul(m, g)
            if p not in seen:
                seen.add(p)
                order.append((p, word + (i,)))
    return tuple(order)


# -- raise dims on every positive line, by a BFS over line orbits ------------


def is_nonneg(v) -> bool:
    return all(x >= 0 for x in v) and any(x != 0 for x in v)


def line_raises(rs, dims=None) -> dict[tuple, int]:
    """Reference: raise dims extended from the simple roots to every
    positive line by a breadth-first search over each Weyl orbit of lines,
    refusing dims (rs.raise_dims by default) that differ within an orbit."""
    dims = rs.raise_dims if dims is None else dims
    mats = [simple_matrix(rs, i) for i in range(rs.rank)]
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
    simple_roots = mat_identity(rs.rank)
    for rep, orbit in classes.items():
        ns = {dims[i] for i, sr in enumerate(simple_roots) if sr in orbit}
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


# -- the root-system builder with two parsers and a closure per component ----

_REF_TOKEN = re.compile(r"^(BC|A|B|C|D|G2|F4)(\d*)$")
ROOT_SYSTEM_FIELDS = ("family", "rank", "cartan", "positive_roots",
                      "positive_lines", "raise_dims", "gram")


def _reference_cartan_and_lengths(fam: str, rank: int):
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
        return [[2, -3], [-1, 2]], [1, 3]
    return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]], [2, 2, 1, 1]


def _reference_positive_roots(cartan, rank: int) -> list:
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                pairing = sum(v[j] * cartan[i][j] for j in range(rank))
                w = tuple(v[j] - (pairing if j == i else 0) for j in range(rank))
                if is_nonneg(w) and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def _reference_parse_component(token: str) -> tuple[str, int]:
    m = _REF_TOKEN.match(token)
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


def reference_build_root_system(family: str, rank=None, raise_dims=None) -> dict:
    """The fields of the root system that the builder made before it had
    one parser, one bond list per family and one closure over the whole
    Cartan matrix: a product token and a lone token parsed apart, and the
    roots closed per component, BC's doubled ones under its own Gram
    matrix."""
    family = family.strip()
    if "x" in family:
        comps = [_reference_parse_component(t) for t in family.split("x")]
        token = "x".join(f"{f}{r}" if f not in ("G2", "F4") else f for f, r in comps)
    else:
        m = _REF_TOKEN.match(family)
        if not m:
            raise RootSystemError(f"unknown family {family!r}")
        fam, digits = m.group(1), m.group(2)
        if digits:
            r = int(digits)
            if rank is not None and rank != r:
                raise RootSystemError(f"token {family!r} conflicts with explicit rank {rank}")
            comps = [_reference_parse_component(family)]
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
    positives: list[tuple] = []
    doubled: list[tuple] = []
    off = 0
    for fam, r in comps:
        c, d = _reference_cartan_and_lengths(fam, r)
        for i in range(r):
            for j in range(r):
                cartan[off + i][off + j] = c[i][j]
        lengths.extend(d)
        pos = _reference_positive_roots(c, r)

        def embed(v, off=off, r=r):
            return (0,) * off + v + (0,) * (total - off - r)
        positives.extend(embed(v) for v in pos)
        if fam == "BC":
            gram = [[d[i] * c[i][j] for j in range(r)] for i in range(r)]

            def sq(v):
                return sum(v[i] * gram[i][j] * v[j] for i in range(r) for j in range(r))
            shortest = min(sq(v) for v in pos)
            doubled.extend(embed(tuple(2 * x for x in v)) for v in pos if sq(v) == shortest)
        off += r

    all_pos = sorted(positives + doubled)
    pos_set = set(all_pos)
    lines = tuple(v for v in all_pos
                  if not (all(x % 2 == 0 for x in v) and tuple(x // 2 for x in v) in pos_set))
    if raise_dims is None:
        dims = tuple([1] * total)
    else:
        dims = tuple(int(n) for n in raise_dims)
        if len(dims) != total:
            raise RootSystemError(f"raise_dims has {len(dims)} entries for rank {total}")
        if any(n < 1 for n in dims):
            raise RootSystemError("raise dims must be >= 1")
        _check_raise_dims(cartan, dims)
    gram = tuple(tuple(lengths[i] * cartan[i][j] for j in range(total)) for i in range(total))
    return dict(zip(ROOT_SYSTEM_FIELDS, (token, total, tuple(map(tuple, cartan)),
                                         tuple(all_pos), lines, dims, gram)))


# -- the string-keyed sigma index the int tables replaced ---------------------


def reference_partition(d: OrbitDatum) -> None:
    """sigma's domain rule: the alpha-cells name each orbit exactly once.
    Refuses, alpha by alpha in basis order, the first orbit in orbit order
    that they name zero or several times, counting every role of every
    cell, with the text of OrbitDatum.involutions."""
    for alpha in range(1, d.root_system.rank + 1):
        named = Counter(oid for cell in d.cells.get(alpha, ())
                        for oid in legacy_cell(cell)[1:] if oid is not None)
        for oid in d.orbit_ids():
            if named[oid] == 0:
                raise DatumFormatError(
                    f"orbit {oid!r} is not covered by any cell for alpha {alpha}")
            if named[oid] > 1:
                raise DatumFormatError(
                    f"orbit {oid!r} is named {named[oid]} times by the cells for alpha {alpha}")


def reference_membership(d: OrbitDatum) -> dict[tuple[int, str], tuple[RaiseCell, str]]:
    """(alpha, orbit id) -> (cell, role), after :func:`reference_partition`."""
    reference_partition(d)
    return {(alpha, oid): (cell, role)
            for alpha, cells in d.cells.items() for cell in cells
            for role, oid in zip(LEGACY_ROLES[cell.kind], cell.members)}


# -- the cell record with a field per role, and its per-kind branches ---------

#: Member roles per cell kind, in serialization order, as the datum module
#: listed them before its one table of kinds.
LEGACY_ROLES = {"U": ("y", "z"), "TU": ("y", "z1", "z2"), "A": ("y",),
                "RT": ("y", "z1", "z2"), "RI": ("y", "z"), "N": ("y", "z")}


class LegacyCell(NamedTuple):
    """RaiseCell as it was before ``RaiseCell(kind, members)``, less the
    simple root it carried: one field per role, None where the kind has
    no such role, and the kind branches of its two methods."""

    kind: str
    y: str
    z: str | None = None
    z1: str | None = None
    z2: str | None = None

    def members(self) -> tuple[str, ...]:
        if self.kind in ("TU", "RT"):
            return (self.y, self.z1, self.z2)
        return (self.y,) if self.kind == "A" else (self.y, self.z)

    def image(self, m: str) -> str:
        a, b = (self.y, self.z) if self.kind == "U" else (self.z1, self.z2)
        return b if m == a else a if m == b else m


def legacy_cell(cell: RaiseCell) -> LegacyCell:
    """The cell with its members read into role fields through LEGACY_ROLES."""
    return LegacyCell(cell.kind, **dict(zip(LEGACY_ROLES[cell.kind], cell.members)))


_LEGACY_STYLE = {"U": "solid", "TU": "solid", "RT": "solid", "RI": "dotted", "N": "dotted"}
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def legacy_export_dot(d: OrbitDatum) -> str:
    """export_dot with its five-way branch over the cell kinds."""
    lines = ["digraph orbit_datum {", f"  // root_system: {d.root_system.to_text()}",
             "  node [shape=box];"]
    for o in d.orbits:
        oid = o.id.translate(_DOT_ESCAPES)
        lines.append(f'  "{oid}" [label="{oid} ({o.dim}|{o.c},{o.rk},{o.s})"];')
    for alpha, cells in sorted(d.cells.items()):
        for cell in map(legacy_cell, cells):
            tag = f"a{alpha} {cell.kind}"
            style = _LEGACY_STYLE.get(cell.kind)
            if cell.kind == "U":
                edges = [(cell.y, cell.z)]
            elif cell.kind == "TU":
                edges = [(cell.y, cell.z1), (cell.z1, cell.z2)]
            elif cell.kind == "RT":
                edges = [(cell.y, cell.z1), (cell.y, cell.z2)]
            elif cell.kind in ("RI", "N"):
                edges = [(cell.y, cell.z)]
            else:  # A
                lines.append(f"  // {tag} {{{cell.y.translate(_DOT_ESCAPES)}}}")
                continue
            for src, dst in edges:
                src, dst = (x.translate(_DOT_ESCAPES) for x in (src, dst))
                lines.append(
                    f'  "{src}" -> "{dst}" [label="{tag}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- sigma's cell rule, written out per kind ---------------------------------


def kind_swap(cell: RaiseCell) -> dict[str, str]:
    """sigma_alpha inside one cell, by kind and read by orbit ids: U swaps
    y and z, TU and RT swap z1 and z2, A, RI and N fix their members."""
    cell = legacy_cell(cell)
    if cell.kind == "U":
        return {cell.y: cell.z, cell.z: cell.y}
    if cell.kind in ("TU", "RT"):
        return {cell.z1: cell.z2, cell.z2: cell.z1}
    return {}


def reference_involutions(d: OrbitDatum) -> dict[int, list[int]]:
    """OrbitDatum.involutions by kind, after :func:`reference_partition`."""
    reference_partition(d)
    pos = d.position
    out = {}
    for alpha in range(1, d.root_system.rank + 1):
        perm = list(range(len(d.orbits)))
        for cell in d.cells[alpha]:
            for m, n in kind_swap(cell).items():
                perm[pos[m]] = pos[n]
        out[alpha] = perm
    return out


def reference_columns(d: OrbitDatum) -> dict[int, tuple[int, ...]]:
    """build_module's columns by kind, after :func:`reference_partition`:
    U cells swap their two basis vectors, TU and RT cells send [z1] to
    [y] + [z2] and back, the rest act as the identity."""
    reference_partition(d)
    at = d.position
    columns = {}
    for alpha in range(1, d.root_system.rank + 1):
        col = [1 << i for i in range(len(d.orbits))]
        for cell in map(legacy_cell, d.cells[alpha]):
            if cell.kind == "U":
                col[at[cell.y]] = 1 << at[cell.z]
                col[at[cell.z]] = 1 << at[cell.y]
            elif cell.kind in ("TU", "RT"):
                col[at[cell.z1]] = (1 << at[cell.y]) | (1 << at[cell.z2])
                col[at[cell.z2]] = (1 << at[cell.y]) | (1 << at[cell.z1])
        columns[alpha] = tuple(col)
    return columns


def apply_word(module: HeckeModule, word: tuple[int, ...],
               vec: frozenset[int]) -> frozenset[int]:
    """T_w for w given as a word, rightmost letter acting first: the
    per-word path the BFS recurrence of verify_regular_representation
    replaced."""
    for alpha in reversed(word):
        vec = apply(module, alpha, vec)
    return vec


# -- the Hecke module on packed ints, bit i standing for basis position i ----


def packed(vec) -> int:
    """A vector given by its basis positions, as a packed int."""
    return sum(1 << i for i in vec)


def packed_columns(module: HeckeModule) -> dict[int, tuple[int, ...]]:
    return {alpha: tuple(map(packed, col)) for alpha, col in module.columns.items()}


def packed_positions(vec: int) -> list[int]:
    """The set bits of a packed vector, lowest first."""
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


def packed_image(col: tuple[int, ...], vec: int) -> int:
    """The operator with packed columns col applied to a packed vector;
    costs one XOR per set bit."""
    out = 0
    for i in packed_positions(vec):
        out ^= col[i]
    return out


def packed_terms(basis: tuple[str, ...], vec: int) -> list[str]:
    """Basis orbits with a set bit, in basis order."""
    return [basis[i] for i in packed_positions(vec)]


def packed_span_dimension(vectors: list[int]) -> int:
    """F2 rank of a list of packed vectors, pivots keyed by leading bit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v and (p := pivots.get(v.bit_length())):
            v ^= p
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def packed_step_braid_violations(rs, basis, columns) -> list[HeckeBraidViolation]:
    """(T_a T_b)^m applied to each packed basis vector, 2m single steps."""
    out = []
    for a, b in combinations(sorted(columns), 2):
        m = braid_order(rs, a - 1, b - 1)
        for i, oid in enumerate(basis):
            x = 1 << i
            for _ in range(m):
                x = packed_image(columns[a], packed_image(columns[b], x))
            if x != 1 << i:
                out.append(HeckeBraidViolation(a, b, m, oid))
                break
    return out


def packed_regular_representation(rs, basis, columns) -> RegularRepReport:
    """T_w [e] on packed ints, by the whole canonical word of every w."""
    violations = tuple(packed_step_braid_violations(rs, basis, columns))
    words = [w.word for w in enumerate_group(rs)]
    vectors = []
    for word in words:
        vec = 1 << basis.index("e")
        for a in reversed(word):
            vec = packed_image(columns[a + 1], vec)
        vectors.append(vec)
    span = packed_span_dimension(vectors)
    ok = (not violations and len(set(vectors)) == len(words)
          and span == len(basis) and len(words) == len(basis))
    return RegularRepReport(ok, len(words), len(set(vectors)), span, violations)


def packed_leading_position(basis, dims, alpha: int, col: tuple[int, ...], i: int) -> int:
    """The unique minimum-dimension set bit of col[i], or HeckeError."""
    terms = packed_positions(col[i])
    if not terms:
        raise HeckeError(f"T_{alpha} [{basis[i]}] is zero")
    lead = [j for j in terms if dims[j] == min(dims[t] for t in terms)]
    if len(lead) != 1:
        raise HeckeError(f"leading-term tie in T_{alpha} [{basis[i]}]: "
                         + ", ".join(f"[{basis[j]}]" for j in lead))
    return lead[0]


def reference_check_module(d: OrbitDatum) -> HeckeReport:
    """check_module on packed ints, columns by :func:`reference_columns`.
    The report's module holds the same columns as sets of positions, so
    that render_text() and render_json() render it."""
    basis = d.orbit_ids()
    dims = [o.dim for o in d.orbits]
    columns = reference_columns(d)
    not_involutive = [f"T_{alpha} is not an involution at [{oid}]"
                      for alpha, col in columns.items() for i, oid in enumerate(basis)
                      if packed_image(col, col[i]) != 1 << i]
    wrong_lead = []
    for alpha, col in columns.items():
        for i, oid in enumerate(basis):
            try:
                lead = basis[packed_leading_position(basis, dims, alpha, col, i)]
            except HeckeError as exc:
                wrong_lead.append(str(exc))
                continue
            if lead != d.sigma(alpha, oid):
                wrong_lead.append(f"leading term of T_{alpha}[{oid}] is [{lead}], "
                                  f"sigma gives [{d.sigma(alpha, oid)}]")
    rs = d.root_system
    regular = (packed_regular_representation(rs, basis, columns) if "e" in basis
               else None)
    braid = (regular.braid_violations if regular is not None
             else tuple(packed_step_braid_violations(rs, basis, columns)))
    problems = [*not_involutive, *wrong_lead, *(v.line() for v in braid)]
    if regular is not None and not regular.ok:
        problems.append("regular representation check failed")
    module = HeckeModule(d, {alpha: tuple(frozenset(packed_positions(v)) for v in col)
                             for alpha, col in columns.items()})
    return HeckeReport(module, not not_involutive, not wrong_lead, braid, regular,
                       tuple(problems))


def _reference_images(report: HeckeReport) -> dict[str, dict[str, list[str]]]:
    m = report.module
    return {str(alpha): {oid: m.terms(col[i]) for i, oid in enumerate(m.basis)}
            for alpha, col in sorted(m.columns.items())}


def reference_hecke_text(report: HeckeReport) -> str:
    """``weylorb hecke``'s text as HeckeReport.lines() built it: every
    column's term lists in one dict, then every line in one list."""
    out = ["basis: " + " ".join(report.module.basis)]
    for alpha, images in _reference_images(report).items():
        out.extend(f"T_{alpha}[{oid}] = " + " + ".join(terms) for oid, terms in images.items())
    for label, ok in (("involutions", report.involutions),
                      ("leading terms match sigma", report.leading_terms_match_sigma),
                      ("module braid", not report.braid_violations)):
        out.append(f"{label}: " + ("OK" if ok else "FAIL"))
    r = report.regular
    out.append("regular representation: " + (
        "skipped (no identity orbit)" if r is None else
        f"group {r.group_order}, images {r.distinct_images}, span {r.span_dimension}: "
        + ("regular" if r.ok else "NOT regular")))
    out.extend("PROBLEM " + p for p in report.problems)
    return "\n".join(out) + "\n"


def reference_hecke_json(report: HeckeReport) -> str:
    """``weylorb hecke --json`` as HeckeReport.to_obj() and json.dumps made it."""
    r = report.regular
    return json.dumps({
        "ok": report.ok,
        "basis": list(report.module.basis),
        "columns": _reference_images(report),
        "involutions": report.involutions,
        "leading_terms_match_sigma": report.leading_terms_match_sigma,
        "module_braid_ok": not report.braid_violations,
        "regular_representation": None if r is None else {
            "ok": r.ok, "group_order": r.group_order,
            "distinct_images": r.distinct_images, "span_dimension": r.span_dimension},
        "problems": list(report.problems),
    }, indent=2, sort_keys=True) + "\n"


@st.composite
def overlapping_cells(draw) -> OrbitDatum:
    """Up to four cells per simple root over six orbits, cells sharing
    orbits freely; or, for a simple root drawn so, cells that cut one
    shuffle of the orbits into consecutive runs, which partition them.  A
    free cell names distinct orbits, or draws each role's orbit on its own,
    so that one orbit may fill two roles.  Lattices are random rows or
    absent."""
    rs = draw(st.sampled_from([build_root_system(t) for t in ("A1", "A2", "B2", "G2")]))
    ids = ["a", "b", "c", "d", "e", "f"]
    row = st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank).map(tuple)
    with_lattices = draw(st.booleans())
    orbits = tuple(
        Orbit(oid, draw(st.integers(0, 4)), 0, 0, 0, open=oid == "a",
              lattice=draw(st.none() | st.lists(row, min_size=1, max_size=2).map(tuple))
              if with_lattices else None)
        for oid in ids)
    members = st.permutations(ids) | st.lists(st.sampled_from(ids), min_size=3, max_size=3)

    def partition() -> tuple[RaiseCell, ...]:
        rest, out = draw(st.permutations(ids)), []
        while rest:
            kind = draw(st.sampled_from([k for k, roles in LEGACY_ROLES.items()
                                         if len(roles) <= len(rest)]))
            n = len(LEGACY_ROLES[kind])
            out.append(RaiseCell(kind, tuple(rest[:n])))
            rest = rest[n:]
        return tuple(out)

    cells = {alpha: partition() if draw(st.booleans()) else tuple(
        RaiseCell(kind, tuple(draw(members))[:len(LEGACY_ROLES[kind])])
        for kind in draw(st.lists(st.sampled_from(tuple(LEGACY_ROLES)), max_size=4)))
        for alpha in range(1, rs.rank + 1)}
    return OrbitDatum(rs, orbits, cells)


# -- defective data ----------------------------------------------------------


def braid_breaker() -> OrbitDatum:
    """A1xA1 datum whose sigmas generate a 3-cycle, violating m = 2."""
    rs = build_root_system("A1xA1")
    orbits = (Orbit("p", 3, 0, 0, 0, open=True),
              Orbit("q", 2, 0, 0, 0),
              Orbit("r", 1, 0, 0, 0))
    cells = {1: (RaiseCell("U", ("p", "q")), RaiseCell("A", ("r",))),
             2: (RaiseCell("U", ("q", "r")), RaiseCell("A", ("p",)))}
    return OrbitDatum(rs, orbits, cells)


def non_involution() -> OrbitDatum:
    """A1 datum whose open orbit y sits in two U cells: the alpha-1 cells
    name y twice, so they define no sigma_1."""
    rs = build_root_system("A1")
    orbits = (Orbit("y", 1, 0, 0, 0, open=True),
              Orbit("z", 0, 0, 0, 0),
              Orbit("w", 0, 0, 0, 0))
    cells = {1: (RaiseCell("U", ("y", "z")), RaiseCell("U", ("y", "w")))}
    return OrbitDatum(rs, orbits, cells)


def partly_covered() -> OrbitDatum:
    """A1xA1 datum whose alpha-2 cells leave z uncovered."""
    return OrbitDatum(build_root_system("A1xA1"),
                      (Orbit("y", 1, 0, 0, 0, open=True), Orbit("z", 0, 0, 0, 0)),
                      {1: (RaiseCell("U", ("y", "z")),),
                       2: (RaiseCell("A", ("y",)),)})


def missing_alpha() -> OrbitDatum:
    """A1xA1 datum with no cells at all for alpha 2."""
    return OrbitDatum(build_root_system("A1xA1"),
                      (Orbit("y", 1, 0, 0, 0, open=True), Orbit("z", 0, 0, 0, 0)),
                      {1: (RaiseCell("U", ("y", "z")),)})


def tu_y_is_z1() -> OrbitDatum:
    """A1 datum with a TU cell whose y is also its z1: the alpha-1 cells
    name q twice."""
    return OrbitDatum(build_root_system("A1"),
                      (Orbit("y", 2, 0, 0, 0, open=True), Orbit("q", 1, 0, 0, 0),
                       Orbit("r", 0, 0, 0, 0)),
                      {1: (RaiseCell("TU", ("q", "q", "r")),
                           RaiseCell("A", ("y",)))})


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
    record was checked in one pass: every JSON shape check first, then
    the structural rules, checked here on their own
    (:func:`_reference_structure`) before the datum is built."""
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

    cells_obj = obj["cells"]
    if not isinstance(cells_obj, dict):
        raise DatumFormatError("cells must be an object keyed by simple root index")
    cells: dict[int, tuple[RaiseCell, ...]] = {}
    for key, raw_cells in cells_obj.items():
        try:
            alpha = int(key)
        except (TypeError, ValueError):
            raise DatumFormatError(f"cells: bad simple root key {key!r}") from None
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
            if not (isinstance(kind, str) and kind in LEGACY_ROLES):
                raise DatumFormatError(f"{where}: unknown kind {kind!r}")
            _require_keys(c, {"kind", *LEGACY_ROLES[kind]}, where)
            roles = {}
            for role in LEGACY_ROLES[kind]:
                v = c.get(role)
                if not isinstance(v, str):
                    raise DatumFormatError(f"{where}: missing role {role!r}")
                roles[role] = v
            parsed.append(RaiseCell(kind, LegacyCell(kind, **roles).members()))
        cells[alpha] = tuple(parsed)

    notes = obj.get("notes", [])
    if (not isinstance(notes, list)
            or any(not isinstance(x, str) for x in notes)):
        raise DatumFormatError("notes must be a list of strings")

    _reference_structure(rs.rank, orbits, cells)
    return OrbitDatum(root_system=rs, orbits=tuple(orbits), cells=cells,
                      notes=tuple(notes))


def _reference_structure(rank: int, orbits: list[Orbit],
                         cells: dict[int, tuple[RaiseCell, ...]]) -> None:
    """The OrbitDatum constructor's refusals, in its order and texts: a
    repeated id, a lattice row of the wrong length, then per simple root
    in order its key range and the members of its cells sorted by y."""
    ordered = sorted(orbits, key=lambda o: (o.dim, o.id))
    ids = [o.id for o in ordered]
    for n, oid in enumerate(ids):
        if ids.index(oid) < n:
            raise DatumFormatError(f"duplicate orbit id {oid!r}")
    for o in ordered:
        if o.lattice is not None and any(len(row) != rank for row in o.lattice):
            raise DatumFormatError(
                f"orbit {o.id}: lattice ambient dimension differs from rank {rank}")
    known = set(ids)
    for alpha in sorted(cells):
        if not 1 <= alpha <= rank:
            raise DatumFormatError(f"cells: simple root index {alpha} out of range 1..{rank}")
        for cell in sorted(cells[alpha], key=lambda c: c.y):
            for m in cell.members:
                if m not in known:
                    raise DatumFormatError(
                        f"alpha {alpha} cell y={cell.y}: unknown orbit id {m!r}")


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
            for m in cell.members:
                seen[m] = seen.get(m, 0) + 1
        missing = sorted(ids - set(seen))
        extra = sorted(m for m, k in seen.items() if k > 1)
        if missing:
            out.append(Violation("partition-defect", f"alpha {alpha}",
                                 f"orbits not covered: {', '.join(missing)}"))
        if extra:
            out.append(Violation("partition-defect", f"alpha {alpha}",
                                 f"orbits covered more than once: {', '.join(extra)}"))

    for alpha, cells in d.cells.items():
        n_alpha = d.root_system.raise_dims[alpha - 1]
        for cell in map(legacy_cell, cells):
            where = f"alpha {alpha} cell y={cell.y}"
            members = [d.orbit(m) for m in cell.members()]
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
        r = len(reference_rref([tuple(Fraction(x) for x in row) for row in o.lattice]))
        if r != o.rk:
            out.append(Violation("lattice-rank", o.id,
                                 f"lattice rank {r} != rk {o.rk}"))

    return ValidationReport(tuple(out))


def sigma_checks(cell: RaiseCell) -> list[tuple[str, str]]:
    """The lattice checks of one cell following sigma by orbit ids: each
    member m in order against :func:`kind_swap`'s image of m, a pair once
    whichever end comes first.  On a cell that names distinct orbits, U
    moves y to z, TU and RT fix y and move z1 to z2, A fixes y, and RI and
    N fix y and z."""
    swap = kind_swap(cell)
    out: list[tuple[str, str]] = []
    for m in cell.members:
        pair = (m, swap.get(m, m))
        if pair not in out and pair[::-1] not in out:
            out.append(pair)
    return out


def reference_check_lattices(d: OrbitDatum) -> ValidationReport:
    """check_lattices as it was: every cell walked, lattices or not, with
    a reflection matrix per simple root, and each cell's (src, dst) pairs
    by :func:`sigma_checks`."""
    out: list[Violation] = []
    for alpha, cells in sorted(d.cells.items()):
        s_mat = simple_matrix(d.root_system, alpha - 1)
        for cell in cells:
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
            for src, dst in sigma_checks(cell):
                if _span_after(s_mat, lat[src]) != _span(lat[dst]):
                    out.append(Violation(
                        f"lattice-span-{cell.kind}", where,
                        f"s_alpha * span(Lambda({src})) != span(Lambda({dst}))"))
    return ValidationReport(tuple(out))


def _span_after(matrix, lattice):
    rows = []
    for row in lattice:
        rows.append(tuple(Fraction(sum(matrix[i][j] * row[j] for j in range(len(row))))
                          for i in range(len(matrix))))
    return reference_rref(list(rows))


def _span(lattice):
    return reference_rref([tuple(Fraction(x) for x in row) for row in lattice])


def reference_rref(rows: list[tuple]) -> tuple[tuple, ...]:
    """Reduced row echelon form over Q, dividing each pivot row by its
    pivot, as the datum layer computed it before its lattice spans and the
    oracle's inverses mod q shared ``coxeter.rref``."""
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


# -- the oracle's spec loader through int(), and its monomial fit over Fraction

def det_laplace(mat, q: int) -> int:
    """Determinant mod q by cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0] % q
    return sum((-1) ** j * mat[0][j]
               * det_laplace([row[:j] + row[j + 1:] for row in mat[1:]], q)
               for j in range(len(mat))) % q


def _reference_as_matrices(raw, dimension: int, q: int, where: str):
    out = []
    for mat in raw:
        if len(mat) != dimension or any(len(row) != dimension for row in mat):
            raise OracleError(f"{where}: matrix is not {dimension}x{dimension}")
        reduced = tuple(tuple(int(x) % q for x in row) for row in mat)
        if det_laplace(reduced, q) == 0:
            raise OracleError(f"{where}: singular generator {reduced} mod {q}")
        out.append(reduced)
    if not out:
        raise OracleError(f"{where}: no generators")
    return tuple(out)


def reference_spec_from_obj(obj: dict, q: int) -> MatGroupSpec:
    """The spec loader that passed q, dimension, P keys and entries
    through int(): equal on well-formed specs, but it truncated 2.9 to 2."""
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
    g_gens, b_gens, h_gens = (_reference_as_matrices(gens[block], dim, q, f"{block} generators")
                              for block in ("G", "B", "H"))
    parabolics = {}
    for key, mats in gens.get("P", {}).items():
        alpha = int(key)
        if not 1 <= alpha <= rs.rank:
            raise OracleError(f"parabolic index {key} outside 1..{rs.rank}")
        parabolics[alpha] = _reference_as_matrices(mats, dim, q, f"P_{alpha} generators")
    return MatGroupSpec(
        name=str(obj["name"]),
        root_system=obj["root_system"],
        q=q,
        dimension=dim,
        g_gens=g_gens, b_gens=b_gens, h_gens=h_gens,
        parabolics=parabolics,
    )


def reference_fit_monomial(points: list[tuple[int, int]]) -> tuple[int, int, Fraction] | None:
    """The monomial fit that made a Fraction for every (a, b) it tried."""
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


# -- the oracle's closure of all of H ------------------------------------------

def reference_closure(gens, q: int, cap: int = 10**6) -> dict:
    """All products of the flat row-major generators mod q, in BFS layers
    from the identity, as an ordered dict: the H closure the oracle made
    for |H|, for Schreier-generator membership and for its cap, refusing
    once a layer takes it past cap elements."""
    arith = _arith(isqrt(len(gens[0])), q)
    mul, group, new = arith.mul, {arith.eye: None}, [arith.eye]
    while new:
        fresh = []
        for x in new:
            for g in gens:
                y = mul(x, g)
                if y not in group:
                    group[y] = None
                    fresh.append(y)
        if len(group) > cap:
            raise OracleError(f"H closure exceeds cap {cap}: reached {len(group)} elements")
        new = fresh
    return group


# -- the oracle's chain of explicit stabilizer sets ------------------------------

def reference_close(group: dict, new: list, gens: list, mul) -> dict:
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
        new = fresh
    return group


def reference_adjoin(group: dict, gens: list, gen, mul) -> dict:
    """Add gen to gens and extend group, the closure of the old gens, to
    the closure of all of them without redoing the old products."""
    gens.append(gen)
    new = [y for y in dict.fromkeys(mul(x, gen) for x in group) if y not in group]
    group.update(dict.fromkeys(new))
    return reference_close(group, new, gens, mul)


class ReferenceLevel:
    """The label level the oracle had before its Schreier–Sims chain: one
    level L of H's pointwise row-stabilizer chain, generators, their
    inverses and |L|, with every L-orbit of row vectors met so far and,
    under its minimum, the level of that minimum's stabilizer, which is
    closed as a set of matrices.  The top level starts with order None,
    and its first reduce sets |H|.  :func:`weylorb.oracle._canon` reads it
    as it reads a :class:`weylorb.oracle._Level`."""

    def __init__(self, gens: list, invs: list, order, arith: _Arith):
        self.gens, self.invs, self.order, self.arith = gens, invs, order, arith
        self.orbit: dict = {}  # w -> (mu, u): mu its orbit minimum, u in L, w·u = mu
        self.below: dict = {}  # mu -> the ReferenceLevel of Stab_L(mu)

    def reduce(self, v: tuple) -> tuple:
        """(mu, u): the minimum mu of v's L-orbit and u in L with v·u = mu.
        A new orbit is searched from v for mu, then from mu with the inverse
        generators for u and u^-1; the Schreier generators u_w^-1·h·u_{w·h}
        of Stab_L(mu) are adjoined until its order is |L| / |orbit|; while
        |L| is unknown, all of them, and |L| = |orbit| |Stab|."""
        if v not in self.orbit:
            _, eye, mul, vmul = self.arith
            mu = min(reference_close({v: None}, [v], self.gens, vmul))
            members, trans = [mu], {mu: (eye, eye)}  # w -> (u, u^-1), w·u = mu
            for x in members:
                u, r = trans[x]
                for g, g_inv in zip(self.gens, self.invs):
                    w = vmul(x, g_inv)
                    if w not in trans:
                        trans[w] = mul(g, u), mul(r, g_inv)
                        members.append(w)
            self.orbit.update((w, (mu, u)) for w, (u, _) in trans.items())
            below, order = self, self.order and self.order // len(members)
            if order is None or len(members) > 1:
                group, gens, invs = {eye: None}, [], []
                for w, (h, h_inv) in iproduct(members, zip(self.gens, self.invs)):
                    if len(group) == order:
                        break
                    (u, r), (ux, rx) = trans[w], trans[vmul(w, h)]
                    s = mul(mul(r, h), ux)
                    if s not in group:
                        invs.append(mul(mul(rx, h_inv), u))
                        reference_adjoin(group, gens, s, mul)
                below = ReferenceLevel(gens, invs, len(group), self.arith)
                self.order = len(members) * len(group)
            self.below[mu] = below
        return self.orbit[v]


def reference_top(h_gens, q: int) -> ReferenceLevel:
    """The top of H's explicit-set chain, of unknown order until the
    identity's first row is reduced, as the oracle primed it."""
    arith = _arith(len(h_gens[0]), q)
    top = ReferenceLevel(_flat(h_gens), [_inv_mod(h, q) for h in h_gens], None, arith)
    top.reduce(arith.eye[:arith.k])
    return top


# -- the oracle's certificate H <= G as a set of |G ∩ H| matrices --------------

def reference_certified_enumeration(spec: MatGroupSpec) -> OracleReport:
    """The certificate enumerate_orbits gave before it grew G ∩ H on a
    row-stabilizer chain: every Schreier generator t_y^-1 g t_x of the
    coset BFS, closed as one set, is G ∩ H, and H <= G iff that set has
    |H| elements, |H| the closure of H.  Refuses as enumerate_orbits
    does, then forms the report by :func:`reference_enumerate_by_act`."""
    q, arith = spec.q, _arith(spec.dimension, spec.q)
    top = reference_top(spec.h_gens, q)
    gens = list(zip(_flat(spec.g_gens), _flat(mod_inverse(g, q) for g in spec.g_gens)))
    index, trans, tinv, schreier = {_canon(arith.eye, top): 0}, [arith.eye], [arith.eye], set()
    for x, t in enumerate(trans):  # trans grows while it is read: a BFS over cosets
        for g, g_inv in gens:
            prod = arith.mul(g, t)
            y = index.setdefault(_canon(prod, top), len(trans))
            if y == len(trans):
                trans.append(prod)
                tinv.append(arith.mul(tinv[x], g_inv))
            schreier.add(arith.mul(tinv[y], prod))
    if len(reference_closure(list(schreier), q)) != len(reference_closure(_flat(spec.h_gens), q)):
        raise OracleError("H is not contained in the group generated by G")
    return reference_enumerate_by_act(spec)


# -- the oracle's orbits by canonicalising every image --------------------------

def reference_enumerate_by_act(spec: MatGroupSpec) -> OracleReport:
    """enumerate_orbits as it formed orbits before point permutations: the
    points are the closure of H's label under G, and each image g·x under
    a B or P_alpha generator is canonicalised anew (``act``).  Checks
    neither the caps nor H <= G."""
    q, k = spec.q, spec.dimension
    arith = _arith(k, q)
    top = reference_top(spec.h_gens, q)
    start = _canon(arith.eye, top)
    labels = orbit_closure([start], _flat(spec.g_gens), lambda m, g: _canon(arith.mul(g, m), top))
    index = {label: i for i, label in enumerate(labels)}
    blocks = [("B", spec.b_gens)] + [(f"P_{a}", m) for a, m in spec.parabolics.items()]
    for name, mats in blocks:  # H <= G: b in G iff b·H is a point
        if any(_canon(b, top) not in index for b in _flat(mats)):
            raise OracleError(f"{name} is not contained in the group generated by G")

    def act(x: int, g: tuple) -> int:  # the point g·x
        return index[_canon(arith.mul(g, labels[x]), top)]

    def orbits_under(mats) -> list[list[int]]:
        gens, seen, out = _flat(mats), set(), []
        for i in range(len(labels)):
            if i not in seen:
                out.append(orbit_closure([i], gens, act))
                seen.update(out[-1])
        return out

    ordered = sorted(orbits_under(spec.b_gens),
                     key=lambda m: (len(m), min(labels[i] for i in m)))
    orbit_of_coset = {i: oi for oi, members in enumerate(ordered) for i in members}
    infos = [OrbitInfo(representative=_fmt_matrix(min(labels[i] for i in m), k),
                       size=len(m)) for m in ordered]
    merges = {}
    for alpha, mats in sorted(spec.parabolics.items()):
        classes = []
        for members in orbits_under(mats):
            block = sorted({orbit_of_coset[i] for i in members})
            if sum(infos[oi].size for oi in block) != len(members):
                raise OracleError(f"P_{alpha} class is not a union of B-orbits")
            classes.append(tuple(block))
        merges[alpha] = tuple(sorted(classes))
    return OracleReport(spec_name=spec.name, root_system=spec.root_system,
                        q=q, group_order=len(labels) * top.order,
                        subgroup_order=top.order, point_count=len(labels),
                        orbits=tuple(infos), merges=merges)


# -- oracle specs and strategies that test_oracle and test_oracle_numpy share --

def mod_mul(a, b, q: int) -> tuple:
    """The matrix product mod q as a tuple of rows."""
    return tuple(tuple(x % q for x in row) for row in mat_mul(a, b))


def mod_inverse(g, q: int) -> tuple:
    """The inverse mod q as a tuple of rows."""
    k, inv = len(g), _inv_mod(g, q)
    return tuple(inv[i:i + k] for i in range(0, k * k, k))


def conjugated(obj: dict, g, q: int) -> dict:
    """The spec with every generator M replaced by g M g^-1 mod q, pinned to q."""
    g_inv = mod_inverse(g, q)

    def conj(mats):
        return [mod_mul(mod_mul(g, m, q), g_inv, q) for m in mats]

    gens = obj["generators"]
    return {**obj, "q": q, "generators": {
        **{block: conj(gens[block]) for block in ("G", "B", "H")},
        "P": {a: conj(mats) for a, mats in gens.get("P", {}).items()}}}


def elementary(k: int, i: int, j: int, c: int = 1):
    return tuple(tuple(int(r == s) + c * ((r, s) == (i, j)) for s in range(k))
                 for r in range(k))


def diagonal(k: int, i: int, t: int):
    return tuple(tuple((t if r == i else 1) * (r == s) for s in range(k)) for r in range(k))


def bruhat_obj(k: int, q: int, root: int) -> dict:
    """G = GL_k(F_q) and H = B upper triangular, root a primitive root mod q."""
    upper = [elementary(k, i, i + 1) for i in range(k - 1)]
    lower = [elementary(k, i + 1, i) for i in range(k - 1)]
    borel = [diagonal(k, i, root) for i in range(k)] + upper
    return {"name": f"bruhat_gl{k}", "root_system": f"A{k - 1}", "q": q,
            "dimension": k,
            "generators": {"G": upper + lower + [diagonal(k, 0, root)],
                           "B": borel, "H": borel,
                           "P": {str(a + 1): borel + [lower[a]] for a in range(k - 1)}}}


#: GL_k/B specs, plain and conjugated, by test id: (spec, q).
BRUHAT_CASES = {
    "gl2-B-conjugated-q11": (conjugated(bruhat_obj(2, 11, 2), ((3, 7), (5, 1)), 11), 11),
    "gl3-B-q3": (bruhat_obj(3, 3, 2), 3),
    "gl3-B-conjugated-q3": (
        conjugated(bruhat_obj(3, 3, 2), ((1, 2, 0), (0, 1, 1), (2, 0, 1)), 3), 3),
}
#: GL3/B conjugated at q = 5, where closing all of G takes 35 s and 0.9 GB.
GL3_B_CONJUGATED_Q5 = conjugated(bruhat_obj(3, 5, 2), ((1, 2, 0), (0, 1, 3), (1, 0, 1)), 5)


def bundled_cases():
    """(name, q) for every bundled spec: at 5 and 7, or at its pinned prime."""
    for name in ORACLE_SPEC_NAMES:
        pinned = json.loads(oracle_spec_text(name))["q"]
        for q in (5, 7) if pinned is None else (pinned,):
            yield name, q


def chain_top(h_gens, q: int, order: int | None = None) -> _Level:
    """The top level of H's label chain, as enumerate_orbits builds it: by
    default |H| is the order of H's Schreier–Sims chain."""
    arith, gens, invs = _arith(len(h_gens[0]), q), _flat(h_gens), [_inv_mod(h, q) for h in h_gens]
    return _Level(gens, invs, order or _Chain(arith.eye[:arith.k], arith, gens, invs).order, arith)


def outside_obj(block: str) -> dict:
    """G and H the upper unipotent group, with one lower unipotent
    generator put into B or into P_1."""
    upper, lower = [[1, 1], [0, 1]], [[1, 0], [1, 1]]
    gens = {"G": [upper], "B": [upper], "H": [upper], "P": {"1": [upper]}}
    if block == "B":
        gens["B"] = [upper, lower]
    else:
        gens["P"] = {"1": [upper, lower]}
    return {"name": "bad", "root_system": "A1", "q": None, "dimension": 2,
            "generators": gens}


@st.composite
def invertible(draw, qs=(2, 3, 5, 7, 257), ks=(1, 2, 3, 4)):
    q = draw(st.sampled_from(qs))
    k = draw(st.sampled_from(ks))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    mat = tuple(map(tuple, rows))
    assume(det_laplace(mat, q) != 0)
    return mat, q


@st.composite
def canon_cases(draw):
    """Generators of a subgroup H, conjugated by a random g, and random
    matrices, singular ones included.  H is trivial, generated by signed
    permutations, one unipotent or one diagonal matrix, or an upper
    triangular group (unipotent part and one or two diagonal matrices,
    q <= 7), whose row-stabilizer chain is non-trivial for several levels."""
    kind = draw(st.sampled_from(["trivial", "signed", "unipotent", "diagonal", "upper"]))
    g, q = draw(invertible(qs=(2, 3, 5, 7) if kind == "upper" else (2, 3, 5, 7, 257),
                           ks=(1, 2, 3)))
    k = len(g)
    if kind == "trivial":
        gens = [diagonal(k, 0, 1)]
    elif kind == "signed" or k == 1:
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            perm = draw(st.permutations(range(k)))
            signs = draw(st.lists(st.sampled_from([1, q - 1]), min_size=k, max_size=k))
            gens.append(tuple(tuple(signs[r] * (perm[r] == c) for c in range(k))
                              for r in range(k)))
    elif kind == "unipotent":
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        gens = [elementary(k, i, j, draw(st.integers(1, q - 1)))]
    elif kind == "diagonal":
        gens = [diagonal(k, draw(st.integers(0, k - 1)), draw(st.integers(1, q - 1)))]
    else:
        gens = [elementary(k, i, i + 1, draw(st.integers(1, q - 1))) for i in range(k - 1)]
        gens += [diagonal(k, draw(st.integers(0, k - 1)), draw(st.integers(1, q - 1)))
                 for _ in range(draw(st.integers(1, 2)))]
    g_inv = mod_inverse(g, q)
    h_gens = [mod_mul(mod_mul(g, m, q), g_inv, q) for m in gens]
    n = draw(st.integers(1, 12))
    mats = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k * k, max_size=k * k),
                         min_size=n, max_size=n))
    if k > 1 and draw(st.booleans()):  # one matrix with a repeated row
        mats[0][k:2 * k] = mats[0][:k]
    return h_gens, [tuple(m) for m in mats], q
