"""Exact-group layer: orders, root counts, lengths, braid orders.

Expected values come from independent closed formulas (factorial orders,
root-count formulas, Coxeter diagram braid labels), not from the code
under test.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb import coxeter
from weylorb.coxeter import (
    CapExceeded,
    DEFAULT_GROUP_CAP,
    MAX_RANK,
    RootSystemError,
    WeylElement,
    WeylGroup,
    braid_order,
    braid_witnesses,
    build_root_system,
    enumerate_group,
    reflections,
    subgroup_closure,
    weyl_group,
    word_name,
)

from references import (
    ROOT_SYSTEM_FIELDS,
    element_matrix,
    line_raises,
    mat_apply,
    mat_identity,
    mat_mul,
    matrix_bfs,
    reference_build_root_system,
    simple_element,
    simple_matrix,
)


def weyl_order(family: str, rank: int) -> int:
    """Independent closed-form |W| for the supported families."""
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C", "BC"):
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if family == "G2":
        return 12
    if family == "F4":
        return 1152
    raise AssertionError(family)


CASES = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 3), ("BC", 1), ("BC", 2), ("G2", 2), ("F4", 4),
]


@pytest.mark.parametrize("family,rank", CASES)
def test_group_order_matches_closed_formula(family, rank):
    rs = build_root_system(family, rank)
    assert len(enumerate_group(rs)) == weyl_order(family, rank)


def test_positive_root_counts():
    # closed formulas: A_n: n(n+1)/2, B_n/C_n: n^2, D_n: n(n-1), G2: 6, F4: 24
    assert len(build_root_system("A", 3).positive_roots) == 6
    assert len(build_root_system("B", 2).positive_roots) == 4
    assert len(build_root_system("B", 3).positive_roots) == 9
    assert len(build_root_system("C", 3).positive_roots) == 9
    assert len(build_root_system("D", 3).positive_roots) == 6
    assert len(build_root_system("G2").positive_roots) == 6
    assert len(build_root_system("F4").positive_roots) == 24


def test_bc_has_both_alpha_and_two_alpha():
    rs = build_root_system("BC", 1)
    assert rs.positive_roots == ((1,), (2,))
    assert rs.positive_lines == ((1,),)
    assert len(enumerate_group(rs)) == 2


def test_bc2_roots_and_lines():
    rs = build_root_system("BC", 2)
    # B2 positives plus doubles of the two short roots
    assert len(rs.positive_roots) == 6
    assert len(rs.positive_lines) == 4
    assert len(enumerate_group(rs)) == 8


def test_reduced_families_have_no_doubled_roots():
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("G2", 2), ("F4", 4)]:
        rs = build_root_system(fam, rank)
        pos = set(rs.positive_roots)
        for v in pos:
            assert tuple(2 * x for x in v) not in pos


def test_product_system():
    rs = build_root_system("A1xA1")
    assert rs.rank == 2
    assert rs.family == "A1xA1"
    assert len(enumerate_group(rs)) == 4
    assert rs.positive_roots == ((0, 1), (1, 0))
    # mixed product
    rs2 = build_root_system("A1xB2")
    assert rs2.rank == 3
    assert len(enumerate_group(rs2)) == 2 * 8


def test_is_root_examples():
    assert build_root_system("A1xA1").is_root((1, 1)) is False
    assert build_root_system("B", 2).is_root((1, 1)) is True
    assert build_root_system("A", 2).is_root((0, 0)) is False


def test_braid_orders_match_diagram():
    a2 = build_root_system("A", 2)
    assert braid_order(a2, 0, 1) == 3
    b2 = build_root_system("B", 2)
    assert braid_order(b2, 0, 1) == 4
    bc2 = build_root_system("BC", 2)
    assert braid_order(bc2, 0, 1) == 4
    g2 = build_root_system("G2")
    assert braid_order(g2, 0, 1) == 6
    x = build_root_system("A1xA1")
    assert braid_order(x, 0, 1) == 2
    a3 = build_root_system("A", 3)
    assert braid_order(a3, 0, 2) == 2
    f4 = build_root_system("F4")
    assert [braid_order(f4, i, i + 1) for i in range(3)] == [3, 4, 3]
    with pytest.raises(RootSystemError):
        braid_order(a2, 0, 0)


def inversion_count(rs, w) -> int:
    """The positive lines that w's matrix sends to negative roots."""
    m = element_matrix(w)
    return sum(all(x <= 0 for x in mat_apply(m, line)) for line in rs.positive_lines)


@pytest.mark.parametrize("family,rank", CASES)
def test_simple_reflections_are_involutions(family, rank):
    rs = build_root_system(family, rank)
    for i in range(rs.rank):
        s = simple_element(rs, i)
        assert (s * s).id == 0
        assert inversion_count(rs, s) == 1


@pytest.mark.parametrize("family,rank", CASES)
def test_longest_element_length_is_line_count(family, rank):
    rs = build_root_system(family, rank)
    group = enumerate_group(rs)
    lengths = [inversion_count(rs, w) for w in group]
    assert max(lengths) == len(rs.positive_lines)
    assert lengths.count(0) == 1
    # BFS discovery depth equals inversion length
    assert [len(w.word) for w in group] == lengths


@pytest.mark.parametrize("family,rank", CASES)
def test_reflection_count_is_line_count(family, rank):
    rs = build_root_system(family, rank)
    refl = reflections(rs)
    assert len(refl) == len(rs.positive_lines)
    assert len({element_matrix(w) for w in refl}) == len(refl)
    for w in refl:
        assert (w * w).id == 0
        assert len(w.word) % 2 == 1


def test_reflection_negates_its_root_and_fixes_orthogonals():
    rs = build_root_system("B", 2)
    for line, w in zip(rs.positive_lines, reflections(rs)):
        assert mat_apply(element_matrix(w), line) == tuple(-x for x in line)
        for other in rs.positive_lines:
            if rs.form(line, other) == 0:
                assert mat_apply(element_matrix(w), other) == other


def test_cartan_pairing_integrality():
    rs = build_root_system("G2")
    for beta in rs.positive_roots:
        for i in range(rs.rank):
            alpha = mat_identity(rs.rank)[i]
            p = Fraction(2 * rs.form(beta, alpha), rs.form(alpha, alpha))
            assert p.denominator == 1
            assert p == sum(beta[j] * rs.cartan[i][j] for j in range(rs.rank))


def test_enumeration_cap():
    rs = build_root_system("A", 3)
    message = "Weyl group exceeds cap 5: reached 6 elements"
    with pytest.raises(CapExceeded) as err:
        WeylGroup(rs, cap=5)  # the BFS stops at the first element past the cap
    assert str(err.value) == message
    assert len(enumerate_group(rs)) == 24
    with pytest.raises(CapExceeded) as err:
        enumerate_group(rs, cap=5)  # the cached group refuses the same way
    assert str(err.value) == message
    assert DEFAULT_GROUP_CAP == 51840


def test_subgroup_closure():
    rs = build_root_system("A", 2)
    s0, s1 = simple_element(rs, 0), simple_element(rs, 1)
    rot = s0 * s1
    sub = subgroup_closure([rot])
    assert len(sub) == 3
    assert WeylElement(rs, 0, ()) in sub
    assert len(subgroup_closure([WeylElement(rs, 0, ())])) == 1
    assert len(subgroup_closure([s0, s1])) == 6
    with pytest.raises(CapExceeded) as err:
        subgroup_closure([s0, s1], cap=3)
    assert str(err.value) == "subgroup closure exceeds cap 3: reached 4 elements"
    # the closure runs over W's tables, so a W past the default cap is refused
    a8 = build_root_system("A8")
    with pytest.raises(CapExceeded) as err:
        subgroup_closure([simple_element(a8, 0)])
    assert str(err.value) == "Weyl group exceeds cap 51840: reached 51841 elements"
    # a cap above the default lifts it for W too: |W(F4xB3)| = 55296
    f4b3 = build_root_system("F4xB3")
    s = simple_element(f4b3, 0)
    with pytest.raises(CapExceeded) as err:
        subgroup_closure([s])
    assert str(err.value) == "Weyl group exceeds cap 51840: reached 51841 elements"
    try:
        assert subgroup_closure([s], cap=55296) == {WeylElement(f4b3, 0, ()), s}
    finally:  # do not keep a 55296-element group cached for later tests
        coxeter._GROUPS.pop((f4b3.family, f4b3.rank), None)


def test_mixed_systems_rejected():
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    with pytest.raises(RootSystemError):
        simple_element(a2, 0) * simple_element(b2, 0)


def test_raise_dims_consistency():
    # A2 simple roots are Weyl-conjugate: unequal dims must be rejected
    with pytest.raises(RootSystemError):
        build_root_system("A", 2, raise_dims=[1, 2])
    # distinct orbits may differ
    rs = build_root_system("A1xA1", raise_dims=[1, 3])
    assert line_raises(rs) == {(1, 0): 1, (0, 1): 3}
    b2 = build_root_system("B", 2, raise_dims=[2, 1])
    # the short root alpha1 + alpha2 is conjugate to alpha2, the long
    # alpha1 + 2 alpha2 to alpha1
    assert line_raises(b2) == {(1, 0): 2, (1, 2): 2, (0, 1): 1, (1, 1): 1}


def test_invalid_families_rejected():
    for bad in [("BC", 0), ("E", 6), ("G2", 3), ("F4", 2), ("D", 1)]:
        with pytest.raises(RootSystemError):
            build_root_system(*bad)
    with pytest.raises(RootSystemError):
        build_root_system("A")


def test_text_record():
    for token, rank, dims, text in [("A", 2, None, "A 2 n=[1,1]"),
                                    ("BC", 2, None, "BC 2 n=[1,1]"),
                                    ("A1xA1", 2, [1, 3], "A1xA1 2 n=[1,3]"),
                                    ("G2", 2, None, "G2 2 n=[1,1]")]:
        assert build_root_system(token, rank, raise_dims=dims).to_text() == text


def test_canonical_words_and_names():
    rs = build_root_system("A", 2)
    w0 = max(enumerate_group(rs), key=lambda w: len(w.word))
    assert inversion_count(rs, w0) == 3
    assert weyl_group(rs).words[w0.id] == w0.word == (0, 1, 0)
    assert word_name(()) == "e"
    assert word_name((0, 1)) == "1.2"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), max_size=8))
def test_word_inverse_properties_b2(idxs):
    rs = build_root_system("B", 2)
    w = WeylElement(rs, 0, ())
    for i in idxs:
        w = w * simple_element(rs, i)
    assert (w * w.inverse()).id == 0
    assert inversion_count(rs, w.inverse()) == inversion_count(rs, w)
    assert len(w.word) >= inversion_count(rs, w)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A1xA1"]))
def test_braid_relation_holds(token):
    rs = build_root_system(token)
    m = braid_order(rs, 0, 1)
    prod = simple_element(rs, 0) * simple_element(rs, 1)
    acc = WeylElement(rs, 0, ())
    for _ in range(m):
        acc = acc * prod
    assert acc.id == 0
    assert mat_identity(rs.rank) == element_matrix(acc)


# -- the indexed Weyl group against the matrix BFS it replaced --------------


INDEXED_CASES = ["A1", "A2", "A3", "B2", "BC2", "G2", "A1xA1", "BC3", "F4",
                 "B3xG2", "B5"]


@pytest.mark.parametrize("token", INDEXED_CASES)
def test_indexed_group_matches_matrix_bfs(token):
    rs = build_root_system(token)
    ref = list(matrix_bfs(rs))
    mats = [m for m, _ in ref]
    group = weyl_group(rs)
    assert list(group.words) == [w for _, w in ref]
    assert [(w.id, w.word) for w in enumerate_group(rs)] == list(enumerate(group.words))

    simple = [simple_matrix(rs, i) for i in range(rs.rank)]
    ident = mat_identity(rs.rank)
    for w, m in enumerate(mats):
        assert [mats[x] for x in group.mul[w]] == [mat_mul(m, s) for s in simple]
        assert [mats[x] for x in group.left[w]] == [mat_mul(s, m) for s in simple]
        assert mat_mul(m, mats[group.inv[w]]) == ident

    by_matrix = dict(ref)
    assert [w.word for w in reflections(rs)] == [
        by_matrix[reflection_matrix(rs, line)] for line in rs.positive_lines]


@pytest.mark.parametrize("token", INDEXED_CASES)
def test_simple_reflections_follow_the_identity(token):
    """s_0, ..., s_{r-1} are ids 1, ..., r, so neither the identity nor a
    simple reflection needs W built."""
    rs = build_root_system(token)
    group = weyl_group(rs)
    assert group.words[0] == () and enumerate_group(rs)[0] == WeylElement(rs, 0, ())
    for i in range(rs.rank):
        assert group.words[i + 1] == (i,)
        assert simple_element(rs, i) == enumerate_group(rs)[i + 1]
        assert element_matrix(simple_element(rs, i)) == simple_matrix(rs, i)


@pytest.mark.parametrize("token", ["A3", "B3", "BC2", "G2", "F4", "A1xA1"])
def test_element_builds_one_matrix_along_its_word(token):
    """A handle's arithmetic follows its id, whatever its witness word: its
    products and inverse have the matrices the matrix BFS builds along the
    canonical words."""
    rs = build_root_system(token)
    simple = [simple_matrix(rs, i) for i in range(rs.rank)]
    for w, (m, word) in enumerate(matrix_bfs(rs)):
        element = WeylElement(rs, w, word[:1])
        assert inversion_count(rs, element) == len(word)
        assert mat_mul(m, element_matrix(element.inverse())) == mat_identity(rs.rank)
        for i, s in enumerate(simple):
            assert element_matrix(element * simple_element(rs, i)) == mat_mul(m, s)
            assert element_matrix(simple_element(rs, i) * element) == mat_mul(s, m)


def test_element_arithmetic_is_bounded_by_the_group_cap():
    a8 = build_root_system("A8")  # |W(A8)| = 362880
    s0, s1 = simple_element(a8, 0), simple_element(a8, 1)
    assert s0.word == (0,)
    with pytest.raises(CapExceeded) as err:
        s0 * s1
    assert str(err.value) == "Weyl group exceeds cap 51840: reached 51841 elements"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["F4", "B3xG2", "BC3"]), st.data())
def test_table_product_equals_matrix_product(token, data):
    rs = build_root_system(token)
    group = weyl_group(rs)
    letters = st.lists(st.integers(min_value=0, max_value=rs.rank - 1), max_size=12)
    handles, mats = [], []
    for word in (data.draw(letters), data.draw(letters)):
        w, m = WeylElement(rs, 0, ()), mat_identity(rs.rank)
        for i in word:
            w, m = w * simple_element(rs, i), mat_mul(m, simple_matrix(rs, i))
        handles.append(w)
        mats.append(m)
    a, b = handles
    assert [element_matrix(a), element_matrix(b)] == mats
    product = matrix_bfs(rs)[group.product(a.id, b.id)][0]
    assert product == element_matrix(a * b) == mat_mul(*mats)
    assert (a * b).word == a.word + b.word
    assert mat_mul(mats[0], element_matrix(a.inverse())) == mat_identity(rs.rank)


# -- the id closure against the matrix BFS it replaced ----------------------


def matrix_subgroup_closure(gens: list[tuple],
                            cap: int = DEFAULT_GROUP_CAP) -> set[tuple]:
    """Reference closure of generator matrices: breadth-first by
    tuple-matrix products g·w.

    Only elements the BFS adds count against the cap, not the identity
    and generators it starts from.
    """
    elements = {mat_identity(len(gens[0])), *gens}
    frontier = list(elements)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                m = mat_mul(g, w)
                if m not in elements:
                    if len(elements) + 1 > cap:
                        raise CapExceeded(f"subgroup closure exceeds cap {cap}: "
                                          f"reached {cap + 1} elements")
                    elements.add(m)
                    nxt.append(m)
        frontier = nxt
    return elements


@pytest.mark.parametrize("token", ["A3", "BC3", "G2", "F4", "B3xG2"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_id_closure_matches_matrix_closure(token, data):
    rs = build_root_system(token)
    group = weyl_group(rs)
    words = data.draw(st.lists(st.lists(st.integers(0, rs.rank - 1), max_size=6),
                               min_size=1, max_size=3))
    gens, gen_mats = [], []
    for word in words:
        w, m = WeylElement(rs, 0, ()), mat_identity(rs.rank)
        for i in word:
            w, m = w * simple_element(rs, i), mat_mul(m, simple_matrix(rs, i))
        gens.append(w)
        gen_mats.append(m)
    assert [element_matrix(g) for g in gens] == gen_mats
    want = matrix_subgroup_closure(gen_mats)
    ids = group.closure([g.id for g in gens])
    got = subgroup_closure(gens)
    assert got == {WeylElement(rs, w, ()) for w in ids}
    assert {element_matrix(w) for w in got} == want and len(got) == len(want)
    assert all(w.word == group.words[w.id] for w in got)

    order = len(want)
    assert group.closure([g.id for g in gens], order) == ids
    assert matrix_subgroup_closure(gen_mats, order) == want
    if order == 1:
        return
    message = f"subgroup closure exceeds cap {order - 1}: reached {order} elements"
    with pytest.raises(CapExceeded) as err:
        subgroup_closure(gens, order - 1)
    assert str(err.value) == message
    seeds = {mat_identity(rs.rank)} | set(gen_mats)
    if len(seeds) < order:  # else the reference adds nothing to count
        with pytest.raises(CapExceeded) as err:
            matrix_subgroup_closure(gen_mats, order - 1)
        assert str(err.value) == message


# -- readings of the Cartan matrix against the matrix code they replaced ----


def reflection_matrix(rs, root) -> tuple:
    """Reference: matrix of the reflection fixing (., root) = 0, exactly."""
    den = rs.form(root, root)
    cols = []
    for j in range(rs.rank):
        e_j = tuple(int(k == j) for k in range(rs.rank))
        coeff = Fraction(2 * rs.form(e_j, root), den)
        cols.append([Fraction(int(k == j)) - coeff * root[k] for k in range(rs.rank)])
    rows = []
    for r in range(rs.rank):
        row = []
        for j in range(rs.rank):
            x = cols[j][r]
            if x.denominator != 1:
                raise RootSystemError("reflection is not integral; not a root")
            row.append(int(x))
        rows.append(tuple(row))
    return tuple(rows)


def matrix_braid_order(rs, i: int, j: int) -> int:
    """Reference: the least k with (s_i s_j)^k = 1, by matrix powers."""
    m = mat_mul(simple_matrix(rs, i), simple_matrix(rs, j))
    acc = m
    for k in range(1, 1000):
        if acc == mat_identity(rs.rank):
            return k
        acc = mat_mul(acc, m)
    raise RootSystemError("braid order did not terminate; system is not finite")


components = st.one_of(
    st.tuples(st.sampled_from(["A", "B", "C", "BC"]), st.integers(1, 5)).map(
        lambda t: f"{t[0]}{t[1]}"),
    st.integers(2, 5).map(lambda r: f"D{r}"),
    st.sampled_from(["G2", "F4"]),
)
tokens = st.lists(components, min_size=1, max_size=3).map("x".join).filter(
    lambda t: build_root_system(t).rank <= 10)


def _verdict(build):
    try:
        return "accepted", build()
    except RootSystemError as exc:
        return "refused", str(exc)


@settings(max_examples=300, deadline=None)
@given(tokens, st.data())
def test_raise_dim_check_matches_line_orbit_bfs(token, data):
    rank = build_root_system(token).rank
    if data.draw(st.booleans()):
        dims = data.draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    else:  # one value per component, so that more data are accepted
        parts = [build_root_system(t).rank for t in token.split("x")]
        dims = [n for r in parts for n in [data.draw(st.integers(1, 3))] * r]
    got = _verdict(lambda: build_root_system(token, raise_dims=dims))
    want = _verdict(lambda: line_raises(build_root_system(token), dims))
    assert got[0] == want[0]
    if got[0] == "refused":
        assert got[1] == want[1]
    else:
        assert got[1].raise_dims == tuple(dims)
        assert want[1] == line_raises(got[1])


malformed = st.sampled_from(["Q3", "AxB2", "G23", "G22", "F44", "D1", "BC0", "A01",
                             " A2 ", "A1 xB2", "A1x", "x", ""])
root_tokens = st.one_of(
    tokens, malformed, st.sampled_from(["A", "B", "C", "BC", "D", "G2", "F4"]),
    st.lists(st.one_of(components, malformed), min_size=1, max_size=3).map("x".join))


@settings(max_examples=600, deadline=None)
@given(family=root_tokens, rank=st.none() | st.integers(0, 6), data=st.data())
def test_builder_matches_reference_builder(family, rank, data):
    """Every field and every refusal text equal the builder's that parsed
    lone and product tokens apart and closed the roots per component."""
    want = _verdict(lambda: reference_build_root_system(family, rank))
    n = want[1]["rank"] if want[0] == "accepted" else data.draw(st.integers(0, 6))
    dims = data.draw(st.none()
                     | st.integers(1, 3).map(lambda k: [k] * n)  # valid
                     | st.lists(st.integers(1, 3), min_size=n, max_size=n)  # often unequal
                     | st.lists(st.integers(0, 2), max_size=n + 1))
    want = _verdict(lambda: reference_build_root_system(family, rank, dims))
    got = _verdict(lambda: build_root_system(family, rank, raise_dims=dims))
    if got[0] == "accepted":
        got = ("accepted", {f: getattr(got[1], f) for f in ROOT_SYSTEM_FIELDS})
    assert got == want


@pytest.mark.parametrize("rank,dims,message", [
    (1, [1.9], "raise dims must be integers"),
    (1, ["2"], "raise dims must be integers"),
    (1, [True], "raise dims must be integers"),
    (True, None, "rank must be an integer"),
    (2.0, None, "rank must be an integer"),
], ids=["float-dim", "str-dim", "bool-dim", "bool-rank", "float-rank"])
def test_non_integer_rank_and_raise_dims_are_refused(rank, dims, message):
    with pytest.raises(RootSystemError) as exc:
        build_root_system("A", rank, raise_dims=dims)
    assert str(exc.value) == message


@pytest.mark.parametrize("family", ["A", "B", "BC", "C", "D"])
def test_a_system_of_the_largest_rank_builds_in_under_a_second(family):
    assert MAX_RANK == 32
    start = time.perf_counter()
    rs = build_root_system(family, MAX_RANK)
    assert time.perf_counter() - start < 1
    assert rs.rank == MAX_RANK


@pytest.mark.parametrize("family,rank", [
    ("A", MAX_RANK + 1), (f"A{MAX_RANK}xA1", None), (f"A{MAX_RANK}xD1", None),
    ("A", 10**9)])
def test_a_rank_past_the_limit_is_refused_before_anything_is_built(
        monkeypatch, family, rank):
    monkeypatch.setattr(coxeter, "_BONDS", {})  # a build would look a family up
    total = rank or MAX_RANK + 1
    with pytest.raises(RootSystemError) as exc:
        build_root_system(family, rank)
    assert str(exc.value) == f"rank {total} exceeds the limit {MAX_RANK}"


@pytest.mark.parametrize("token", INDEXED_CASES + ["C3", "D4", "BC1", "A1xG2xB2"])
def test_braid_order_matches_matrix_powers(token):
    rs = build_root_system(token)
    for i in range(rs.rank):
        for j in range(rs.rank):
            if i != j:
                assert braid_order(rs, i, j) == matrix_braid_order(rs, i, j)
        for bad in (-1, rs.rank):
            with pytest.raises(RootSystemError):
                braid_order(rs, i, bad)
            with pytest.raises(RootSystemError):
                braid_order(rs, bad, i)


# -- suffix closure, and the braid check by whole tables ---------------------


def _largest_ranks(family: str, first: int):
    """Ranks first, first + 1, ... of a family while |W| stays within the cap."""
    rank = first
    while weyl_order(family, rank) <= DEFAULT_GROUP_CAP:
        yield f"{family}{rank}"
        rank += 1


@pytest.mark.parametrize("token", [*_largest_ranks("A", 1), *_largest_ranks("B", 2),
                                   *_largest_ranks("C", 3), *_largest_ranks("D", 4),
                                   *_largest_ranks("BC", 1), "G2", "F4", "A1xB2xG2"])
def test_shortlex_words_are_suffix_closed(token):
    """s_a·w, a the first letter of w, has the word of w without that letter:
    the recurrence of the regular-representation check rests on this."""
    g = weyl_group(build_root_system(token))
    for w in range(1, len(g)):
        a = g.words[w][0]
        assert g.words[g.left[w][a]] == g.words[w][1:]


def step_witnesses(rs, tables):
    """The braid witnesses by 2m single steps from every point in turn."""
    out = []
    for a, b in combinations(sorted(tables), 2):
        m = braid_order(rs, a - 1, b - 1)
        for x in range(len(tables[a])):
            y = x
            for _ in range(m):
                y = tables[a][tables[b][y]]
            if y != x:
                out.append((a, b, m, x))
                break
    return out


@pytest.mark.parametrize("token", ["A1xA1", "A2", "B2", "G2", "A3", "B3", "A1xG2"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 12), involutive=st.booleans())
def test_braid_witnesses_match_step_reference(token, seed, n, involutive):
    rs = build_root_system(token)
    rng = random.Random(seed)
    tables = {}
    for alpha in range(1, rs.rank + 1):
        perm = list(range(n))
        if involutive:  # disjoint transpositions, as sigma is on a clean datum
            points = rng.sample(range(n), 2 * rng.randint(0, n // 2))
            for x, y in zip(points[::2], points[1::2]):
                perm[x], perm[y] = y, x
        else:
            rng.shuffle(perm)
        tables[alpha] = perm
    got = braid_witnesses(rs, tables, list(range(n)), lambda p, q: [p[x] for x in q])
    assert got == step_witnesses(rs, tables)
