"""Word actions, braid checks, stabilizers, and the generator theorem."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb import coxeter
from weylorb.action import (
    BraidObstruction,
    BraidViolation,
    act_word,
    action_table,
    braid_check,
    check_generator_theorem,
    stabilizer_open,
)
from weylorb.bundled import DATUM_NAMES, bundled_datum
from weylorb.coxeter import (
    braid_order,
    build_root_system,
    WeylElement,
    enumerate_group,
    weyl_group,
    word_name,
)
from weylorb.datum import (
    DatumFormatError,
    OrbitDatum,
    RaiseCell,
    generate_flag_datum,
    validate,
)

from references import (
    DEFECTIVE_CASES,
    FLAG_TOKENS,
    braid_breaker,
    element_matrix,
    legacy_cell,
    mat_identity,
    mat_mul,
    matrix_bfs,
    non_involution,
    reference_membership,
    simple_element,
)


def test_act_word_a1_example():
    d = generate_flag_datum(build_root_system("A", 1))
    assert act_word(d, (1,), "e") == "1"
    assert act_word(d, (1, 1), "e") == "e"
    assert act_word(d, (), "1") == "1"


def test_act_word_matches_left_multiplication():
    rs = build_root_system("B", 2)
    d = generate_flag_datum(rs)
    by_matrix = {element_matrix(w): word_name(w.word) for w in enumerate_group(rs)}
    for word in [(1,), (2,), (1, 2), (2, 1, 2), (1, 2, 1, 2), (2, 2, 1)]:
        got = act_word(d, word, "e")
        acc = WeylElement(rs, 0, ())
        for alpha in word:
            acc = simple_element(rs, alpha - 1) * acc
        assert got == by_matrix[element_matrix(acc)]


@pytest.mark.parametrize("token", FLAG_TOKENS)
def test_flag_braid_clean(token):
    d = generate_flag_datum(build_root_system(token))
    assert braid_check(d) == []


def test_braid_violation_detected():
    d = braid_breaker()
    violations = braid_check(d)
    assert len(violations) == 1
    v = violations[0]
    assert (v.alpha, v.beta, v.order) == (1, 2, 2)
    assert v.witness in ("p", "q", "r")
    assert "braid-relation" in v.line()


@pytest.mark.parametrize("token", FLAG_TOKENS)
def test_flag_stabilizer_trivial(token):
    d = generate_flag_datum(build_root_system(token))
    desc = stabilizer_open(d)
    assert desc.order == 1
    assert desc.element_names() == ["e"]


def test_stabilizer_sl3_full_group():
    desc = stabilizer_open(bundled_datum("sl3_so12"))
    assert desc.order == 6


def test_stabilizer_product_pair():
    desc = stabilizer_open(bundled_datum("product_a1a1"))
    assert desc.order == 2
    assert desc.element_names() == ["1.2", "e"]


def test_stabilizer_rank1_suite():
    expected = {"rank1_u": 1, "rank1_tu": 2, "rank1_a": 2,
                "rank1_rt": 2, "rank1_ri": 2, "rank1_n": 2}
    for name, order in expected.items():
        assert stabilizer_open(bundled_datum(name)).order == order


def test_stabilizer_refuses_braid_violation():
    with pytest.raises(BraidObstruction, match="braid"):
        stabilizer_open(braid_breaker())


def test_stabilizer_refuses_non_involution():
    d = non_involution()
    # every reader of sigma refuses, through d.involutions, the orbit that
    # two cells name
    for check in (braid_check, stabilizer_open, check_generator_theorem):
        with pytest.raises(DatumFormatError) as err:
            check(d)
        assert str(err.value) == "orbit 'y' is named 2 times by the cells for alpha 1"


# -- reference: the string-keyed sigma path the int tables replaced ----------


def reference_cell_sigma(cell: RaiseCell, orbit_id: str) -> str:
    """Image of orbit_id under the cell involution."""
    cell = legacy_cell(cell)
    if cell.kind == "U":
        return cell.z if orbit_id == cell.y else cell.y
    if cell.kind in ("TU", "RT"):
        if orbit_id == cell.z1:
            return cell.z2
        if orbit_id == cell.z2:
            return cell.z1
    return orbit_id  # A, RI, N fix everything


def reference_sigma(d: OrbitDatum, alpha: int, orbit_id: str, membership=None) -> str:
    d.orbit(orbit_id)
    hit = (membership or reference_membership(d)).get((alpha, orbit_id))
    if hit is None:
        raise DatumFormatError(
            f"orbit {orbit_id!r} is not covered by any cell for alpha {alpha}")
    return reference_cell_sigma(hit[0], orbit_id)


def reference_table(d: OrbitDatum) -> dict[int, dict[str, str]]:
    """Per simple root, sigma by one string-keyed call per orbit id."""
    membership = reference_membership(d)
    return {alpha: {oid: reference_sigma(d, alpha, oid, membership)
                    for oid in d.orbit_ids()}
            for alpha in range(1, d.root_system.rank + 1)}


def reference_braid_check(d: OrbitDatum) -> list[BraidViolation]:
    table = reference_table(d)
    out = []
    for a, b in combinations(sorted(table), 2):
        m = braid_order(d.root_system, a - 1, b - 1)
        for x in d.orbit_ids():
            y = x
            for _ in range(m):
                y = table[a][table[b][y]]
            if y != x:
                out.append(BraidViolation(a, b, m, x))
                break
    return out


def outcome(f, *args):
    """f(*args), or the type and text of the refusal it raises."""
    try:
        return "ok", f(*args)
    except (DatumFormatError, BraidObstruction) as exc:
        return type(exc).__name__, str(exc)


def assert_sigma_paths_match_reference(d: OrbitDatum) -> None:
    membership = outcome(reference_membership, d)
    if membership[0] != "ok":  # the cells do not partition the orbits
        for alpha in range(d.root_system.rank + 2):
            for oid in d.orbit_ids():
                assert outcome(d.sigma, alpha, oid) == membership
        assert outcome(d.sigma, 1, "nope") == ("DatumFormatError", "unknown orbit id 'nope'")
        for got in (action_table, braid_check):
            assert outcome(got, d) == membership, got.__name__
        return
    membership = membership[1]
    for alpha in range(d.root_system.rank + 2):  # 0 and rank + 1 name no root
        for oid in d.orbit_ids() + ("nope",):
            assert (outcome(d.sigma, alpha, oid)
                    == outcome(reference_sigma, d, alpha, oid, membership))
    for got, want in ((action_table, reference_table),
                      (braid_check, reference_braid_check)):
        assert outcome(got, d) == outcome(want, d), got.__name__


def schreier_stabilizer(d: OrbitDatum) -> frozenset:
    """Reference stabilizer of the open orbit, by orbit-stabilizer.

    A breadth-first transversal of the open orbit gives Schreier
    generators u_y^-1 s_alpha u_x, closed up by matrix products.
    """
    table = reference_table(d)
    rs = d.root_system
    group = weyl_group(rs)

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

    ref = matrix_bfs(rs)  # the position of a matrix is its id
    by_matrix = {m: w for w, (m, _) in enumerate(ref)}
    generators = [ref[g][0] for g in schreier]
    closed = {mat_identity(rs.rank)}
    frontier = list(closed)
    while frontier:  # breadth-first by tuple-matrix products g·w
        frontier = [m for m in {mat_mul(g, w) for w in frontier for g in generators}
                    if m not in closed]
        closed.update(frontier)
    assert len(closed) * len(transversal) == len(group)
    return frozenset(WeylElement(rs, by_matrix[m], ref[by_matrix[m]][1]) for m in closed)


def renamed(d: OrbitDatum, names: dict[str, str]) -> OrbitDatum:
    """A copy of d with every orbit id x renamed to names[x]."""
    def cell(c: RaiseCell) -> RaiseCell:
        return c._replace(members=tuple(names[m] for m in c.members))
    return OrbitDatum(d.root_system,
                      tuple(o._replace(id=names[o.id]) for o in d.orbits),
                      {a: tuple(cell(c) for c in cs) for a, cs in d.cells.items()})


STABILIZER_CASES = ([bundled_datum(n) for n in DATUM_NAMES]
                    + [generate_flag_datum(build_root_system(t))
                       for t in FLAG_TOKENS + ("F4", "B3xG2")])


@pytest.mark.parametrize("d", STABILIZER_CASES + DEFECTIVE_CASES,
                         ids=lambda d: d.root_system.to_text())
def test_sigma_paths_match_reference(d):
    assert_sigma_paths_match_reference(d)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([d for d in STABILIZER_CASES + DEFECTIVE_CASES
                        if len(d.orbits) <= 48]),
       st.data())
def test_sigma_paths_match_reference_under_renaming(d, data):
    ids = d.orbit_ids()
    fresh = data.draw(st.lists(st.text("abcxyz01.", min_size=1, max_size=4),
                               min_size=len(ids), max_size=len(ids), unique=True))
    assert_sigma_paths_match_reference(renamed(d, dict(zip(ids, fresh))))


def assert_matches_reference(d: OrbitDatum) -> None:
    got = stabilizer_open(d)
    want = schreier_stabilizer(d)
    assert got.words == {w.word for w in want}
    assert got.ids == {w.id for w in want}


@pytest.mark.parametrize("d", STABILIZER_CASES, ids=lambda d: d.root_system.to_text())
def test_stabilizer_matches_schreier_reference(d):
    assert_matches_reference(d)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([d for d in STABILIZER_CASES if len(d.orbits) <= 48]),
       st.data())
def test_stabilizer_matches_reference_under_renaming(d, data):
    ids = d.orbit_ids()
    fresh = data.draw(st.lists(st.text("abcxyz01.", min_size=1, max_size=4),
                               min_size=len(ids), max_size=len(ids), unique=True))
    copy = renamed(d, dict(zip(ids, fresh)))
    assert_matches_reference(copy)
    assert stabilizer_open(copy).element_names() == stabilizer_open(d).element_names()


def test_generator_theorem_product_needs_the_pair():
    res = check_generator_theorem(bundled_datum("product_a1a1"))
    assert res.holds
    assert res.stabilizer.order == 2
    # no reflection stabilizes; the single generator is s1 s2
    assert len(res.generating_set) == 1
    assert len(res.generating_set[0]) == 2


def test_generator_theorem_sl3():
    res = check_generator_theorem(bundled_datum("sl3_so12"))
    assert res.holds
    assert res.stabilizer.order == 6
    # all three reflections stabilize the fixed open orbit
    assert sum(1 for w in res.generating_set if len(w) % 2 == 1) == 3


@pytest.mark.parametrize("name", ["rank1_u", "rank1_tu", "rank1_a",
                                  "rank1_rt", "rank1_ri", "rank1_n"])
def test_generator_theorem_rank1(name):
    res = check_generator_theorem(bundled_datum(name))
    assert res.holds


@pytest.mark.parametrize("token", FLAG_TOKENS)
def test_generator_theorem_flag(token):
    res = check_generator_theorem(generate_flag_datum(build_root_system(token)))
    assert res.holds
    assert res.stabilizer.order == 1


def test_generator_theorem_builds_no_group_matrices(monkeypatch):
    monkeypatch.setattr(coxeter, "_GROUPS", {})  # a fresh F4 group
    rs = build_root_system("F4")
    assert check_generator_theorem(generate_flag_datum(rs)).holds
    assert "matrices" not in weyl_group(rs).__dict__


@pytest.mark.parametrize(
    "d", [bundled_datum(n) for n in DATUM_NAMES]
    + [generate_flag_datum(build_root_system(t)) for t in FLAG_TOKENS],
    ids=lambda d: d.root_system.to_text())
def test_generator_theorem_carries_stabilizer_open(d):
    assert check_generator_theorem(d).stabilizer == stabilizer_open(d)


def test_action_table_involutions():
    for name in ("sl3_so12", "product_a1a1"):
        d = bundled_datum(name)
        table = action_table(d)
        for alpha, perm in table.items():
            assert sorted(perm.values()) == sorted(d.orbit_ids())
            for x, y in perm.items():
                assert perm[y] == x


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2), max_size=10),
       st.sampled_from(["sl3_so12", "product_a1a1"]))
def test_word_then_reverse_returns(word, name):
    d = bundled_datum(name)
    word = tuple(word)
    for start in d.orbit_ids():
        there = act_word(d, word, start)
        back = act_word(d, tuple(reversed(word)), there)
        assert back == start


def test_bundled_data_all_validate():
    for name in ("rank1_u", "rank1_tu", "rank1_a", "rank1_rt", "rank1_ri",
                 "rank1_n", "sl3_so12", "product_a1a1"):
        d = bundled_datum(name)
        assert validate(d).ok, name
        assert braid_check(d) == [], name
