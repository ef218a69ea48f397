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

from .coxeter import braid_witnesses, weyl_group, word_name
from .datum import OrbitDatum

__all__ = [
    "BraidObstruction", "BraidViolation", "GeneratorTheoremResult",
    "SubgroupDescription", "act_word", "action_table", "braid_check",
    "check_generator_theorem", "stabilizer_open",
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
    """A subgroup of the Weyl group, as ids into its tables and as the
    canonical reduced words of its elements."""

    ids: frozenset[int]
    words: frozenset[tuple[int, ...]]

    @property
    def order(self) -> int:
        return len(self.ids)

    def element_names(self) -> list[str]:
        return sorted(map(word_name, self.words))


class GeneratorTheoremResult(NamedTuple):
    holds: bool
    generating_set: tuple[tuple[int, ...], ...]  # canonical reduced words
    stabilizer: SubgroupDescription
    generated_order: int


def action_table(d: OrbitDatum) -> dict[int, dict[str, str]]:
    """Per simple root, the sigma involution as an explicit permutation."""
    ids = d.orbit_ids()
    return {alpha: {ids[i]: ids[j] for i, j in enumerate(perm)}
            for alpha, perm in d.involutions.items()}


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

    Returns the list of failing pairs, each with a witness orbit.  Cells
    that do not partition the orbits are refused by ``d.involutions``
    (DatumFormatError); on a partition each sigma_alpha is an involution.
    """
    ids = d.orbit_ids()
    return [BraidViolation(a, b, m, ids[i]) for a, b, m, i in braid_witnesses(
        d.root_system, d.involutions, list(range(len(ids))), lambda p, q: [p[x] for x in q])]


def stabilizer_open(d: OrbitDatum) -> SubgroupDescription:
    """Stabilizer of the open orbit in the Weyl group.

    Refuses to run unless the cells partition the orbits and the braid
    relations hold, since only then does the action factor through W.
    One pass over the group in table order then sends each element w to
    w^-1 applied to the open orbit, from its BFS parent w·s_i; the
    stabilizer is the set of w whose image is the open orbit.
    """
    violations = braid_check(d)
    if violations:
        raise BraidObstruction(
            "sigma does not satisfy the braid relations: "
            + "; ".join(v.line() for v in violations))
    group = weyl_group(d.root_system)
    perms, start = d.involutions, d.position[d.open_orbit().id]
    image = [start]  # image[w] = w^-1 applied to the open orbit
    for w in range(1, len(group)):
        i = group.words[w][-1]  # w^-1 = s_i·parent^-1 with parent = w·s_i
        image.append(perms[i + 1][image[group.mul[w][i]]])
    ids = frozenset(w for w, x in enumerate(image) if x == start)
    return SubgroupDescription(ids, frozenset(group.words[w] for w in ids))


def check_generator_theorem(d: OrbitDatum) -> GeneratorTheoremResult:
    """Test whether the stabilizer of the open orbit is generated by its
    reflections together with products s_a s_b of reflections in roots
    that are orthogonal under the invariant form with a + b not a root.
    """
    rs = d.root_system
    stab = stabilizer_open(d)
    group = weyl_group(rs)
    refl = group.reflections

    gens = [w for w in refl if w in stab.ids]
    for (i, a), (j, b) in combinations(enumerate(rs.positive_lines), 2):
        if rs.form(a, b) == 0 and not rs.is_root(tuple(x + y for x, y in zip(a, b))):
            prod = group.product(refl[i], refl[j])
            if prod in stab.ids:
                gens.append(prod)

    generated = group.closure(gens)
    return GeneratorTheoremResult(
        holds=generated == stab.ids,
        generating_set=tuple(group.words[g] for g in gens),
        stabilizer=stab,
        generated_order=len(generated),
    )
