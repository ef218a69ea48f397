"""Word actions, braid checks, stabilizers, and the generator theorem."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb.action import (
    BraidObstruction,
    act_word,
    action_table,
    braid_check,
    check_generator_theorem,
    orbit_of_open,
    stabilizer_open,
)
from weylorb.bundled import DATUM_NAMES, bundled_datum
from weylorb.coxeter import build_root_system, enumerate_group, word_name
from weylorb.datum import Orbit, OrbitDatum, RaiseCell, generate_flag_datum, validate

FLAG_TOKENS = ("A1", "A2", "A3", "B2", "BC2", "G2", "A1xA1")


def braid_breaker() -> OrbitDatum:
    """A1xA1 datum whose sigmas generate a 3-cycle, violating m = 2."""
    rs = build_root_system("A1xA1")
    orbits = (Orbit("p", 3, 0, 0, 0, open=True),
              Orbit("q", 2, 0, 0, 0),
              Orbit("r", 1, 0, 0, 0))
    cells = {1: (RaiseCell(1, "U", y="p", z="q"), RaiseCell(1, "A", y="r")),
             2: (RaiseCell(2, "U", y="q", z="r"), RaiseCell(2, "A", y="p"))}
    return OrbitDatum(rs, orbits, cells)


def test_act_word_a1_example():
    d = generate_flag_datum(build_root_system("A", 1))
    assert act_word(d, (1,), "e") == "1"
    assert act_word(d, (1, 1), "e") == "e"
    assert act_word(d, (), "1") == "1"


def test_act_word_matches_left_multiplication():
    rs = build_root_system("B", 2)
    d = generate_flag_datum(rs)
    by_matrix = {w.matrix: word_name(w.word) for w in enumerate_group(rs)}
    for word in [(1,), (2,), (1, 2), (2, 1, 2), (1, 2, 1, 2), (2, 2, 1)]:
        got = act_word(d, word, "e")
        acc = rs.identity_element()
        for alpha in word:
            acc = rs.simple_reflection(alpha - 1) * acc
        assert got == by_matrix[acc.matrix]


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


def test_orbit_of_open():
    for token in FLAG_TOKENS:
        d = generate_flag_datum(build_root_system(token))
        assert orbit_of_open(d) == tuple(sorted(d.orbit_ids()))
    assert orbit_of_open(bundled_datum("sl3_so12")) == ("x",)
    assert orbit_of_open(bundled_datum("product_a1a1")) == ("y", "z")
    assert orbit_of_open(bundled_datum("rank1_u")) == ("y", "z")
    assert orbit_of_open(bundled_datum("rank1_rt")) == ("y",)


@pytest.mark.parametrize("token", FLAG_TOKENS)
def test_flag_stabilizer_trivial(token):
    d = generate_flag_datum(build_root_system(token))
    desc = stabilizer_open(d)
    assert desc.order == 1
    assert desc.element_names() == ["e"]
    assert desc.generators == ()


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


def test_schreier_generators_generate():
    from weylorb.coxeter import subgroup_closure

    for name in ("sl3_so12", "product_a1a1", "rank1_rt"):
        desc = stabilizer_open(bundled_datum(name))
        assert desc.generators
        assert set(subgroup_closure(list(desc.generators))) == set(desc.elements)


def test_generator_theorem_product_needs_the_pair():
    res = check_generator_theorem(bundled_datum("product_a1a1"))
    assert res.holds
    assert res.stabilizer_order == 2
    # no reflection stabilizes; the single generator is s1 s2
    assert len(res.generating_set) == 1
    assert res.generating_set[0].length() == 2


def test_generator_theorem_sl3():
    res = check_generator_theorem(bundled_datum("sl3_so12"))
    assert res.holds
    assert res.stabilizer_order == 6
    # all three reflections stabilize the fixed open orbit
    assert sum(1 for w in res.generating_set if w.length() % 2 == 1) == 3


@pytest.mark.parametrize("name", ["rank1_u", "rank1_tu", "rank1_a",
                                  "rank1_rt", "rank1_ri", "rank1_n"])
def test_generator_theorem_rank1(name):
    res = check_generator_theorem(bundled_datum(name))
    assert res.holds


@pytest.mark.parametrize("token", FLAG_TOKENS)
def test_generator_theorem_flag(token):
    res = check_generator_theorem(generate_flag_datum(build_root_system(token)))
    assert res.holds
    assert res.stabilizer_order == 1


@pytest.mark.parametrize(
    "d", [bundled_datum(n) for n in DATUM_NAMES]
    + [generate_flag_datum(build_root_system(t)) for t in FLAG_TOKENS],
    ids=lambda d: d.root_system.to_text())
def test_generator_theorem_carries_stabilizer_open(d):
    got = check_generator_theorem(d).stabilizer
    want = stabilizer_open(d)
    assert got.elements == want.elements
    assert ({(w.matrix, w.word) for w in got.elements}
            == {(w.matrix, w.word) for w in want.elements})
    assert ([(g.matrix, g.word) for g in got.generators]
            == [(g.matrix, g.word) for g in want.generators])


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
