"""Mod-2 Hecke module attached to an orbit datum.

The free F2-vector space on the orbits carries one operator T_alpha per
simple root, assembled cell by cell.  A vector is the frozenset of the
basis positions in its support, so the F2 sum of two vectors is their
symmetric difference ``^``, and applying an operator sums the columns of
the positions in the vector.  Every T_alpha is an involution, and
on a clean datum the operators satisfy the same braid relations as the
sigma involutions, with the leading term of each column recovering sigma
itself; :func:`check_module` reports these for ``weylorb hecke``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple

from . import InputError
from .coxeter import _Frozen, braid_witnesses, enumerate_group, weyl_group
from .datum import KINDS, OrbitDatum, _block

__all__ = [
    "HeckeBraidViolation", "HeckeError", "HeckeModule", "HeckeReport",
    "RegularRepReport", "braid_check_module", "build_module", "check_module",
    "leading_term", "verify_regular_representation",
]


class HeckeError(InputError, RuntimeError):
    """The module data is internally inconsistent."""


class HeckeBraidViolation(NamedTuple):
    """A braid relation of the module that fails on a basis vector; the
    fields of :class:`weylorb.action.BraidViolation`."""

    alpha: int
    beta: int
    order: int
    witness: str

    def line(self) -> str:
        return (f"VIOLATION hecke-braid at alpha {self.alpha}, beta {self.beta}: "
                f"(T_{self.alpha} T_{self.beta})^{self.order} moves basis vector "
                f"[{self.witness}]")


class HeckeModule(_Frozen):
    """T_alpha per simple root as columns: columns[alpha][i] is T_alpha of
    basis vector i, as the frozenset of basis positions in its support.
    The basis is the datum's orbit ids, in order."""

    __slots__ = ("datum", "basis", "columns")

    def __init__(self, datum: OrbitDatum,
                 columns: dict[int, tuple[frozenset[int], ...]]) -> None:
        self._set(datum, datum.orbit_ids(), columns)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HeckeModule)
                and (self.datum, self.columns) == (other.datum, other.columns))

    def index(self, orbit_id: str) -> int:
        return self.datum.position[orbit_id]

    def unit(self, orbit_id: str) -> frozenset[int]:
        return frozenset((self.index(orbit_id),))

    def terms(self, vec: frozenset[int]) -> list[str]:
        """The basis orbits in the support of vec, in basis order."""
        return [self.basis[i] for i in sorted(vec)]


def build_module(d: OrbitDatum) -> HeckeModule:
    """Assemble the T_alpha operators from the raise cells.

    T_alpha sends each basis vector [m] to [sigma_alpha(m)]
    (``d.involutions``, which refuses cells that do not partition the
    orbits), plus [y] on the pair that sigma_alpha swaps below a y it
    fixes (``KINDS[kind].swap[0] != 0``: TU and RT).  A column is the set
    of basis positions in its support:

    >>> from weylorb.bundled import bundled_datum
    >>> m = build_module(bundled_datum("rank1_tu"))
    >>> m.basis
    ('z2', 'z1', 'y')
    >>> m.columns[1][m.index("z1")]  # T_1 [z1] = [z2] + [y]
    frozenset({0, 2})
    """
    at = d.position
    columns: dict[int, tuple[frozenset[int], ...]] = {}
    for alpha, perm in d.involutions.items():
        col = [frozenset((j,)) for j in perm]
        for cell in d.cells[alpha]:
            i, j = KINDS[cell.kind].swap
            if i:
                y, a, b = at[cell.y], at[cell.members[i]], at[cell.members[j]]
                col[a], col[b] = frozenset((y, b)), frozenset((y, a))
        columns[alpha] = tuple(col)
    return HeckeModule(datum=d, columns=columns)


def _image(col, vec: frozenset[int]) -> frozenset[int]:
    """The operator with columns col applied to vec: the F2 sum of the
    columns of the positions in vec; on one position, that column itself."""
    if len(vec) == 1:
        return col[next(iter(vec))]
    out: frozenset[int] = frozenset()
    for i in vec:
        out ^= col[i]
    return out


def apply(module: HeckeModule, alpha: int, vec: frozenset[int]) -> frozenset[int]:
    """T_alpha applied to vec; costs one symmetric difference per position."""
    return _image(module.columns[alpha], vec)


def leading_position(module: HeckeModule, alpha: int, i: int) -> int:
    """Basis position of the unique minimum-dimension term of T_alpha on
    basis vector i; the basis is the datum's orbits, in order.

    A zero column, or a tie in the minimum dimension, means the datum the
    module was built from is corrupt, so that raises instead of picking
    arbitrarily.
    """
    terms = sorted(module.columns[alpha][i])
    if len(terms) == 1:
        return terms[0]
    if not terms:
        raise HeckeError(f"T_{alpha} [{module.basis[i]}] is zero")
    orbits = module.datum.orbits
    low = min(orbits[j].dim for j in terms)
    lead = [j for j in terms if orbits[j].dim == low]
    if len(lead) != 1:
        raise HeckeError(
            f"leading-term tie in T_{alpha} [{module.basis[i]}]: "
            + ", ".join(f"[{module.basis[j]}]" for j in lead))
    return lead[0]


def leading_term(module: HeckeModule, alpha: int, orbit_id: str) -> str:
    """The unique minimum-dimension orbit in T_alpha [orbit_id]; see
    :func:`leading_position`."""
    return module.basis[leading_position(module, alpha, module.index(orbit_id))]


def braid_check_module(module: HeckeModule) -> list[HeckeBraidViolation]:
    """Check (T_a T_b)^m = id on every basis vector, m the braid order."""
    return [HeckeBraidViolation(a, b, m, module.basis[i]) for a, b, m, i in braid_witnesses(
        module.datum.root_system, module.columns,
        [frozenset((i,)) for i in range(len(module.basis))],
        lambda p, q: [_image(p, v) for v in q])]


def _span_dimension(vectors: list[frozenset[int]]) -> int:
    """F2 rank of a list of vectors."""
    pivots: dict[int, frozenset[int]] = {}  # largest position -> reduced vector
    for v in vectors:
        while v and (p := pivots.get(max(v))):
            v ^= p
        if v:
            pivots[max(v)] = v
    return len(pivots)


class RegularRepReport(NamedTuple):
    ok: bool
    group_order: int
    distinct_images: int
    span_dimension: int
    braid_violations: tuple[HeckeBraidViolation, ...]


def verify_regular_representation(module: HeckeModule) -> RegularRepReport:
    """Check that w -> T_w [e] realizes the regular representation.

    Requires a module whose basis ids are canonical reduced words (as the
    flag datum produces), so that the identity orbit "e" exists.  Passes
    when the module braid relations hold, the map w -> T_w [e] is
    injective over the whole group, and the cyclic submodule generated by
    [e] is everything.

    T_w [e] is computed in the group's BFS order by the recurrence
    T_w [e] = T_a (T_{s_a w} [e]), with a = words[w][0] and s_a w =
    left[w][a], one apply per element.  Shortlex BFS words are
    suffix-closed: the word of s_a w is words[w][1:].  So the recurrence
    applies the letters of words[w] one by one, rightmost first, whether
    or not the braid relations hold.
    """
    if "e" not in module.basis:
        raise HeckeError("no identity orbit \"e\"; regular representation "
                         "check needs a flag-shaped datum")
    violations = tuple(braid_check_module(module))
    rs = module.datum.root_system
    # through enumerate_group: the benchmark's traced run reads |W| there
    order = len(enumerate_group(rs))
    group = weyl_group(rs)
    vectors = [module.unit("e")]
    for w in range(1, order):
        a = group.words[w][0]
        vectors.append(apply(module, a + 1, vectors[group.left[w][a]]))
    images = set(vectors)
    span = _span_dimension(vectors)
    ok = (not violations and len(images) == order
          and span == len(module.basis) and order == len(module.basis))
    return RegularRepReport(ok=ok, group_order=order,
                            distinct_images=len(images),
                            span_dimension=span,
                            braid_violations=violations)


class HeckeReport(NamedTuple):
    """The lines of ``weylorb hecke`` in order: T_alpha^2 = 1, leading
    terms against sigma, the module braid relations and, when the basis
    has the orbit "e", the regular representation.  ``d.involutions``
    settles the first, always True, and the one-term leading terms; the
    rest are computed (see :func:`check_module`)."""

    module: HeckeModule
    involutions: bool
    leading_terms_match_sigma: bool
    braid_violations: tuple[HeckeBraidViolation, ...]
    regular: RegularRepReport | None
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def render_text(self) -> Iterator[str]:
        """The text output in pieces: the basis line, then one piece per
        operator, its line per basis vector rendered from its column as
        the walk reaches it, then one line per check."""
        m = self.module
        yield "basis: " + " ".join(m.basis) + "\n"
        for alpha, col in sorted(m.columns.items()):
            yield "".join(f"T_{alpha}[{oid}] = " + " + ".join(m.terms(vec)) + "\n"
                          for oid, vec in zip(m.basis, col))
        r = self.regular
        out = [f"{label}: " + ("OK" if ok else "FAIL") for label, ok in (
            ("involutions", self.involutions),
            ("leading terms match sigma", self.leading_terms_match_sigma),
            ("module braid", not self.braid_violations))]
        out.append("regular representation: " + (
            "skipped (no identity orbit)" if r is None else
            f"group {r.group_order}, images {r.distinct_images}, span {r.span_dimension}: "
            + ("regular" if r.ok else "NOT regular")))
        out.extend("PROBLEM " + p for p in self.problems)
        yield "\n".join(out) + "\n"

    def render_json(self) -> Iterator[str]:
        """The ``--json`` output in pieces, one per operator as the walk
        reaches its column: together the bytes of ``json.dumps(obj,
        indent=2, sort_keys=True)`` and a newline, where obj maps "columns"
        to {alpha: {id: the ids in T_alpha [id]}}."""
        q, m, r = encode_basestring_ascii, self.module, self.regular
        by_id = sorted(range(len(m.basis)), key=m.basis.__getitem__)
        yield '{\n  "basis": ' + _block(map(q, m.basis), 2) + ',\n  "columns": '
        sep = "{"  # sort_keys orders the operators as strings: "10" before "2"
        for alpha, col in sorted(m.columns.items(), key=lambda kv: str(kv[0])):
            yield f'{sep}\n    "{alpha}": ' + _block(
                [f"{q(m.basis[i])}: " + _block(map(q, m.terms(col[i])), 6) for i in by_id],
                4, "{}")
            sep = ","
        # the other keys sort after "columns": their own dump, less its "{"
        rest = json.dumps({
            "involutions": self.involutions,
            "leading_terms_match_sigma": self.leading_terms_match_sigma,
            "module_braid_ok": not self.braid_violations,
            "ok": self.ok,
            "problems": list(self.problems),
            "regular_representation": None if r is None else {
                "ok": r.ok, "group_order": r.group_order,
                "distinct_images": r.distinct_images, "span_dimension": r.span_dimension},
        }, indent=2, sort_keys=True)
        yield ("{}" if sep == "{" else "\n  }") + "," + rest[1:] + "\n"


def check_module(d: OrbitDatum) -> HeckeReport:
    """Build the module of d and run the checks of :class:`HeckeReport`;
    cells that do not partition the orbits raise DatumFormatError from
    ``d.involutions``.  Cells that do make each column [sigma(i)], or
    [y] + [sigma(i)] on a TU or RT pair, sigma fixing y: so T_alpha^2 = 1,
    and only two-term columns have a leading term to compute."""
    module = build_module(d)
    basis, wrong_lead = module.basis, []
    for alpha, col in sorted(module.columns.items()):
        sigma = d.involutions[alpha]
        for i in (i for i, v in enumerate(col) if len(v) == 2):  # the rest are [sigma(i)]
            try:
                lead = leading_position(module, alpha, i)
            except HeckeError as exc:
                wrong_lead.append(str(exc))
                continue
            if lead != sigma[i]:
                wrong_lead.append(f"leading term of T_{alpha}[{basis[i]}] is [{basis[lead]}], "
                                  f"sigma gives [{basis[sigma[i]]}]")
    # the regular-representation check runs the module braid check itself
    regular = verify_regular_representation(module) if "e" in module.basis else None
    braid = (regular.braid_violations if regular is not None
             else tuple(braid_check_module(module)))
    problems = [*wrong_lead, *(v.line() for v in braid)]
    if regular is not None and not regular.ok:
        problems.append("regular representation check failed")
    return HeckeReport(module, True, not wrong_lead, braid, regular, tuple(problems))
