"""Action of words in simple reflections on an orbit datum.

The free product of the rank-1 involutions sigma(alpha, .) always acts;
the action factors through the Weyl group exactly when the braid
relations hold, which :func:`braid_check` verifies pairwise.  On a clean
datum the stabilizer of the open orbit is computed by orbit-stabilizer
with Schreier generators and closed up inside the full group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import (
    DEFAULT_GROUP_CAP,
    WeylElement,
    braid_witnesses,
    reflections,
    subgroup_closure,
    weyl_group,
    word_name,
)
from .datum import OrbitDatum

__all__ = [
    "BraidObstruction", "BraidViolation", "GeneratorTheoremResult",
    "SubgroupDescription", "act_word", "action_table", "braid_check",
    "check_generator_theorem", "orbit_of_open", "stabilizer_open",
]


class BraidObstruction(RuntimeError):
    """The sigma action does not satisfy a braid relation."""


@dataclass(frozen=True)
class BraidViolation:
    alpha: int
    beta: int
    order: int
    witness: str

    def line(self) -> str:
        return (f"VIOLATION braid-relation at alpha {self.alpha}, beta {self.beta}: "
                f"(sigma_{self.alpha} sigma_{self.beta})^{self.order} moves orbit "
                f"{self.witness}")


@dataclass(frozen=True)
class SubgroupDescription:
    """A subgroup of the Weyl group with Schreier generators as witnesses."""

    generators: tuple[WeylElement, ...]
    elements: frozenset[WeylElement]

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_names(self) -> list[str]:
        return sorted(word_name(w.word) for w in self.elements)


@dataclass(frozen=True)
class GeneratorTheoremResult:
    holds: bool
    generating_set: tuple[WeylElement, ...]
    stabilizer: SubgroupDescription
    generated_order: int

    @property
    def stabilizer_order(self) -> int:
        return self.stabilizer.order


def action_table(d: OrbitDatum) -> dict[int, dict[str, str]]:
    """Per simple root, the sigma involution as an explicit permutation."""
    out: dict[int, dict[str, str]] = {}
    for alpha in range(1, d.root_system.rank + 1):
        out[alpha] = {oid: d.sigma(alpha, oid) for oid in d.orbit_ids()}
    return out


def act_word(d: OrbitDatum, word: tuple[int, ...], orbit_id: str) -> str:
    """Apply sigma(word[0]), then sigma(word[1]), ... to orbit_id.

    Word entries are 1-based simple root indices.
    """
    x = d.orbit(orbit_id).id
    for alpha in word:
        x = d.sigma(alpha, x)
    return x


def braid_check(d: OrbitDatum) -> list[BraidViolation]:
    """Check (sigma_a sigma_b)^m = id for every pair of simple roots.

    Returns the list of failing pairs, each with a witness orbit.
    """
    return _braid_violations(d, action_table(d))


def _braid_violations(d: OrbitDatum, table) -> list[BraidViolation]:
    return [BraidViolation(*v) for v in braid_witnesses(
        d.root_system, sorted(table), [(oid, oid) for oid in d.orbit_ids()],
        lambda alpha, x: table[alpha][x])]


def orbit_of_open(d: OrbitDatum) -> tuple[str, ...]:
    """Orbits reachable from the open orbit under all sigma, sorted.

    If braid_check fails this is still the orbit under the free product
    of the involutions; callers wanting a group orbit should check first.
    """
    table = action_table(d)
    start = d.open_orbit().id
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for alpha in table:
                y = table[alpha][x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def stabilizer_open(d: OrbitDatum,
                    cap: int = DEFAULT_GROUP_CAP) -> SubgroupDescription:
    """Stabilizer of the open orbit in the Weyl group.

    Computed by orbit-stabilizer: a breadth-first transversal of the open
    orbit gives Schreier generators u_y^-1 s_alpha u_x, whose closure is
    the full stabilizer.  The u_x, their inverses and the generators are
    ids read off the Weyl group's tables, so no matrix is multiplied or
    inverted.  Refuses to run if the braid relations fail, since the
    group action would be ill-defined.
    """
    table = action_table(d)
    violations = _braid_violations(d, table)
    if violations:
        raise BraidObstruction(
            "sigma does not satisfy the braid relations: "
            + "; ".join(v.line() for v in violations))
    rs = d.root_system
    group = weyl_group(rs, cap=cap)

    start = d.open_orbit().id
    transversal = {start: 0}  # orbit id -> id of u_x in the group tables
    order: list[str] = [start]
    tree = set()  # BFS tree edges, both ways (sigma and s_alpha are involutions)
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for alpha in sorted(table):
                y = table[alpha][x]
                if y not in transversal:
                    transversal[y] = group.left[transversal[x]][alpha - 1]
                    tree.update({(x, alpha), (y, alpha)})
                    order.append(y)
                    nxt.append(y)
        frontier = nxt

    schreier: dict[int, None] = {}  # ids in discovery order
    for x in order:
        for alpha in (a for a in sorted(table) if (x, a) not in tree):
            u_y = transversal[table[alpha][x]]
            s_u_x = group.left[transversal[x]][alpha - 1]
            if s_u_x != u_y:  # else u_y^-1 s_alpha u_x is the identity
                schreier.setdefault(group.product(group.inv[u_y], s_u_x))

    generators = [group.element(rs, g) for g in schreier]
    if generators:
        elements = frozenset(group.element(rs, group.id_of(w.matrix))
                             for w in subgroup_closure(generators, cap=cap))
    else:
        elements = frozenset({rs.identity_element()})

    if len(elements) * len(transversal) != len(group):
        raise BraidObstruction(
            f"orbit-stabilizer mismatch: |orbit| {len(transversal)} x "
            f"|stab| {len(elements)} != |W| {len(group)}")
    return SubgroupDescription(generators=tuple(generators), elements=elements)


def check_generator_theorem(d: OrbitDatum,
                            cap: int = DEFAULT_GROUP_CAP) -> GeneratorTheoremResult:
    """Test whether the stabilizer of the open orbit is generated by its
    reflections together with products s_a s_b of reflections in roots
    that are orthogonal under the invariant form with a + b not a root.
    """
    rs = d.root_system
    stab = stabilizer_open(d, cap=cap)
    group = weyl_group(rs, cap=cap)
    refl = [group.id_of(w.matrix) for w in reflections(rs)]
    stab_ids = {group.id_of(w.matrix) for w in stab.elements}

    gens = [w for w in refl if w in stab_ids]
    lines = rs.positive_lines
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            if rs.form(a, b) != 0:
                continue
            if rs.is_root(tuple(x + y for x, y in zip(a, b))):
                continue
            prod = group.product(refl[i], refl[j])
            if prod in stab_ids:
                gens.append(prod)

    if gens:
        generated = {group.id_of(w.matrix) for w in subgroup_closure(
            [group.element(rs, g) for g in gens], cap=cap)}
    else:
        generated = {0}
    return GeneratorTheoremResult(
        holds=generated == stab_ids,
        generating_set=tuple(group.element(rs, g) for g in gens),
        stabilizer=stab,
        generated_order=len(generated),
    )
