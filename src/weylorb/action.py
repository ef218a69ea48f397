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
    enumerate_group,
    reflections,
    subgroup_closure,
    word_name,
)
from .datum import OrbitDatum


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
    the full stabilizer.  Each u_y^-1 is built alongside u_y as the
    reversed product, so no matrix is inverted.  Refuses to run if the
    braid relations fail, since the group action would be ill-defined.
    """
    table = action_table(d)
    violations = _braid_violations(d, table)
    if violations:
        raise BraidObstruction(
            "sigma does not satisfy the braid relations: "
            + "; ".join(v.line() for v in violations))
    rs = d.root_system
    gens = {a: rs.simple_reflection(a - 1) for a in table}

    start = d.open_orbit().id
    transversal: dict[str, WeylElement] = {start: rs.identity_element()}
    inv = dict(transversal)
    order: list[str] = [start]
    tree = set()  # BFS tree edges, both ways (sigma and s_alpha are involutions)
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for alpha in sorted(table):
                y = table[alpha][x]
                if y not in transversal:
                    transversal[y] = gens[alpha] * transversal[x]
                    inv[y] = inv[x] * gens[alpha]
                    tree.update({(x, alpha), (y, alpha)})
                    order.append(y)
                    nxt.append(y)
        frontier = nxt

    schreier: list[WeylElement] = []
    seen_mats = set()
    for x in order:
        for alpha in (a for a in sorted(table) if (x, a) not in tree):
            y = table[alpha][x]
            g = inv[y] * gens[alpha] * transversal[x]
            if g.matrix not in seen_mats:
                seen_mats.add(g.matrix)
                if not g.is_identity():
                    schreier.append(g)

    if schreier:
        elements = frozenset(subgroup_closure(schreier, cap=cap))
    else:
        elements = frozenset({rs.identity_element()})

    group_order = len(enumerate_group(rs, cap=cap))
    if len(elements) * len(transversal) != group_order:
        raise BraidObstruction(
            f"orbit-stabilizer mismatch: |orbit| {len(transversal)} x "
            f"|stab| {len(elements)} != |W| {group_order}")
    # re-express elements through canonical reduced words for stable output
    canonical = {w.matrix: w for w in enumerate_group(rs, cap=cap)}
    elements = frozenset(canonical[w.matrix] for w in elements)
    schreier = [canonical[g.matrix] for g in schreier]
    return SubgroupDescription(generators=tuple(schreier), elements=elements)


def check_generator_theorem(d: OrbitDatum,
                            cap: int = DEFAULT_GROUP_CAP) -> GeneratorTheoremResult:
    """Test whether the stabilizer of the open orbit is generated by its
    reflections together with products s_a s_b of reflections in roots
    that are orthogonal under the invariant form with a + b not a root.
    """
    rs = d.root_system
    stab = stabilizer_open(d, cap=cap)
    stab_mats = {w.matrix for w in stab.elements}
    refl = reflections(rs)

    gens: list[WeylElement] = []
    for w in refl:
        if w.matrix in stab_mats:
            gens.append(w)
    lines = rs.positive_lines
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            if rs.form(a, b) != 0:
                continue
            if rs.is_root(tuple(x + y for x, y in zip(a, b))):
                continue
            prod = refl[i] * refl[j]
            if prod.matrix in stab_mats:
                gens.append(prod)

    if gens:
        generated = subgroup_closure(gens, cap=cap)
        generated_mats = {w.matrix for w in generated}
    else:
        generated_mats = {rs.identity_element().matrix}
    canonical = {w.matrix: w for w in enumerate_group(rs, cap=cap)}
    gens = [canonical[g.matrix] for g in gens]
    return GeneratorTheoremResult(
        holds=generated_mats == stab_mats,
        generating_set=tuple(gens),
        stabilizer=stab,
        generated_order=len(generated_mats),
    )
