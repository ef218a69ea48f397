"""Action of words in simple reflections on an orbit datum.

The free product of the rank-1 involutions sigma(alpha, .) always acts;
the action factors through the Weyl group exactly when the braid
relations hold, which :func:`braid_check` verifies pairwise.  On a clean
datum the stabilizer of the open orbit is read off one pass over the
Weyl group's tables, and the generator theorem closes its candidate
generators with :meth:`WeylGroup.closure`, all on element ids.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .coxeter import (
    DEFAULT_GROUP_CAP,
    WeylElement,
    braid_witnesses,
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


class BraidViolation(NamedTuple):
    alpha: int
    beta: int
    order: int
    witness: str

    def line(self) -> str:
        return (f"VIOLATION braid-relation at alpha {self.alpha}, beta {self.beta}: "
                f"(sigma_{self.alpha} sigma_{self.beta})^{self.order} moves orbit "
                f"{self.witness}")


class SubgroupDescription(NamedTuple):
    """A subgroup of the Weyl group, as ids into its tables and as elements."""

    ids: frozenset[int]
    elements: frozenset[WeylElement]

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_names(self) -> list[str]:
        return sorted(word_name(w.word) for w in self.elements)


class GeneratorTheoremResult(NamedTuple):
    holds: bool
    generating_set: tuple[WeylElement, ...]
    stabilizer: SubgroupDescription
    generated_order: int

    @property
    def stabilizer_order(self) -> int:
        return self.stabilizer.order


def _involutions(d: OrbitDatum) -> dict[int, list[int]]:
    """sigma_alpha over orbit positions per simple root alpha; refuses the
    first orbit, alpha by alpha in basis order, that no alpha-cell covers."""
    perms = {alpha: d.involutions[alpha] for alpha in range(1, d.root_system.rank + 1)}
    for alpha, perm in perms.items():
        if None in perm:
            d.sigma(alpha, d.orbits[perm.index(None)].id)  # raises
    return perms


def action_table(d: OrbitDatum) -> dict[int, dict[str, str]]:
    """Per simple root, the sigma involution as an explicit permutation."""
    ids = d.orbit_ids()
    return {alpha: {ids[i]: ids[j] for i, j in enumerate(perm)}
            for alpha, perm in _involutions(d).items()}


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

    Returns the list of failing pairs, each with a witness orbit.  If
    none fails, raises BraidObstruction when some sigma_alpha is not an
    involution, as then the action cannot factor through W either.
    """
    return _braid_violations(d, _involutions(d))


def _braid_violations(d: OrbitDatum, perms: dict[int, list[int]]) -> list[BraidViolation]:
    ids = d.orbit_ids()
    identity = list(range(len(ids)))
    out = [BraidViolation(a, b, m, ids[i]) for a, b, m, i in braid_witnesses(
        d.root_system, perms, identity, lambda p, q: [p[x] for x in q])]
    if not out:  # the relations hold; each sigma must also square to 1
        for alpha, perm in perms.items():
            square = [perm[y] for y in perm]
            if square != identity:
                x = next(x for x in identity if square[x] != x)
                y = perm[x]
                raise BraidObstruction(
                    f"sigma_{alpha} is not an involution: it sends {ids[x]} to "
                    f"{ids[y]} and {ids[y]} to {ids[perm[y]]}")
    return out


def orbit_of_open(d: OrbitDatum) -> tuple[str, ...]:
    """Orbits reachable from the open orbit under all sigma, sorted.

    If braid_check fails this is still the orbit under the free product
    of the involutions; callers wanting a group orbit should check first.
    """
    perms = list(_involutions(d).values())
    seen = {d.position[d.open_orbit().id]}
    frontier = list(seen)
    while frontier:
        frontier = [y for y in {perm[x] for x in frontier for perm in perms}
                    if y not in seen]
        seen.update(frontier)
    return tuple(sorted(d.orbits[x].id for x in seen))


def stabilizer_open(d: OrbitDatum,
                    cap: int = DEFAULT_GROUP_CAP) -> SubgroupDescription:
    """Stabilizer of the open orbit in the Weyl group.

    Refuses to run unless every sigma is an involution and the braid
    relations hold, since only then does the action factor through W.
    One pass over the group in table order then sends each element w to
    w^-1 applied to the open orbit, from its BFS parent w·s_i; the
    stabilizer is the set of w whose image is the open orbit.
    """
    perms = _involutions(d)
    violations = _braid_violations(d, perms)
    if violations:
        raise BraidObstruction(
            "sigma does not satisfy the braid relations: "
            + "; ".join(v.line() for v in violations))
    rs = d.root_system
    group = weyl_group(rs, cap=cap)

    start = d.position[d.open_orbit().id]
    image = [start]  # image[w] = w^-1 applied to the open orbit
    for w in range(1, len(group)):
        i = group.words[w][-1]  # w^-1 = s_i·parent^-1 with parent = w·s_i
        image.append(perms[i + 1][image[group.mul[w][i]]])
    ids = frozenset(w for w, x in enumerate(image) if x == start)

    orbit = len(set(image))
    if len(ids) * orbit != len(group):
        raise BraidObstruction(
            f"orbit-stabilizer mismatch: |orbit| {orbit} x "
            f"|stab| {len(ids)} != |W| {len(group)}")
    return SubgroupDescription(ids, frozenset(group.element(rs, w) for w in ids))


def check_generator_theorem(d: OrbitDatum,
                            cap: int = DEFAULT_GROUP_CAP) -> GeneratorTheoremResult:
    """Test whether the stabilizer of the open orbit is generated by its
    reflections together with products s_a s_b of reflections in roots
    that are orthogonal under the invariant form with a + b not a root.
    """
    rs = d.root_system
    stab = stabilizer_open(d, cap=cap)
    group = weyl_group(rs, cap=cap)
    refl = group.reflections

    gens = [w for w in refl if w in stab.ids]
    for (i, a), (j, b) in combinations(enumerate(rs.positive_lines), 2):
        if rs.form(a, b) == 0 and not rs.is_root(tuple(x + y for x, y in zip(a, b))):
            prod = group.product(refl[i], refl[j])
            if prod in stab.ids:
                gens.append(prod)

    generated = group.closure(gens, cap)
    return GeneratorTheoremResult(
        holds=generated == stab.ids,
        generating_set=tuple(group.element(rs, g) for g in gens),
        stabilizer=stab,
        generated_order=len(generated),
    )
