"""Exact-group layer: orders, root counts, lengths, braid orders.

Expected values come from independent closed formulas (factorial orders,
root-count formulas, Coxeter diagram braid labels), not from the code
under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb import coxeter
from weylorb.coxeter import (
    CapExceeded,
    DEFAULT_GROUP_CAP,
    RootSystemError,
    WeylElement,
    WeylGroup,
    braid_order,
    braid_witnesses,
    build_root_system,
    canonical_word,
    enumerate_group,
    mat_identity,
    mat_mul,
    reflections,
    subgroup_closure,
    weyl_group,
    word_name,
)

from references import line_raises


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


@pytest.mark.parametrize("family,rank", CASES)
def test_simple_reflections_are_involutions(family, rank):
    rs = build_root_system(family, rank)
    for i in range(rs.rank):
        s = rs.simple_reflection(i)
        assert (s * s).is_identity()
        assert s.length() == 1


@pytest.mark.parametrize("family,rank", CASES)
def test_longest_element_length_is_line_count(family, rank):
    rs = build_root_system(family, rank)
    group = enumerate_group(rs)
    lengths = [w.length() for w in group]
    assert max(lengths) == len(rs.positive_lines)
    assert lengths.count(0) == 1
    # BFS discovery depth equals inversion length
    assert all(len(w.word) == w.length() for w in group)


@pytest.mark.parametrize("family,rank", CASES)
def test_reflection_count_is_line_count(family, rank):
    rs = build_root_system(family, rank)
    refl = reflections(rs)
    assert len(refl) == len(rs.positive_lines)
    assert len({w.matrix for w in refl}) == len(refl)
    for w in refl:
        assert (w * w).is_identity()
        assert w.length() % 2 == 1


def test_reflection_negates_its_root_and_fixes_orthogonals():
    rs = build_root_system("B", 2)
    for line, w in zip(rs.positive_lines, reflections(rs)):
        assert w.apply(line) == tuple(-x for x in line)
        for other in rs.positive_lines:
            if rs.form(line, other) == 0:
                assert w.apply(other) == other


def test_cartan_pairing_integrality():
    rs = build_root_system("G2")
    for beta in rs.positive_roots:
        for i in range(rs.rank):
            alpha = rs.simple_roots[i]
            p = Fraction(2 * rs.form(beta, alpha), rs.form(alpha, alpha))
            assert p.denominator == 1
            assert int(p) == rs.cartan_pairing(beta, i)


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
    s0, s1 = rs.simple_reflection(0), rs.simple_reflection(1)
    rot = s0 * s1
    sub = subgroup_closure([rot])
    assert len(sub) == 3
    assert rs.identity_element() in sub
    assert len(subgroup_closure([rs.identity_element()])) == 1
    assert len(subgroup_closure([s0, s1])) == 6
    with pytest.raises(CapExceeded) as err:
        subgroup_closure([s0, s1], cap=3)
    assert str(err.value) == "subgroup closure exceeds cap 3: reached 4 elements"
    # the closure runs over W's tables, so a W past the default cap is refused
    a8 = build_root_system("A8")
    with pytest.raises(CapExceeded) as err:
        subgroup_closure([a8.simple_reflection(0)])
    assert str(err.value) == "Weyl group exceeds cap 51840: reached 51841 elements"
    # a cap above the default lifts it for W too: |W(F4xB3)| = 55296
    f4b3 = build_root_system("F4xB3")
    s = f4b3.simple_reflection(0)
    with pytest.raises(CapExceeded) as err:
        subgroup_closure([s])
    assert str(err.value) == "Weyl group exceeds cap 51840: reached 51841 elements"
    try:
        assert subgroup_closure([s], cap=55296) == {f4b3.identity_element(), s}
    finally:  # do not keep a 55296-element group cached for later tests
        coxeter._GROUPS.pop((f4b3.family, f4b3.rank), None)


def test_mixed_systems_rejected():
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    with pytest.raises(RootSystemError):
        a2.simple_reflection(0) * b2.simple_reflection(0)


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
    w0 = max(enumerate_group(rs), key=lambda w: w.length())
    assert w0.length() == 3
    assert len(canonical_word(w0)) == 3
    assert word_name(()) == "e"
    assert word_name((0, 1)) == "1.2"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), max_size=8))
def test_word_inverse_properties_b2(idxs):
    rs = build_root_system("B", 2)
    w = rs.identity_element()
    for i in idxs:
        w = w * rs.simple_reflection(i)
    assert (w * w.inverse()).is_identity()
    assert w.inverse().length() == w.length()
    assert len(w.word) >= w.length()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A1xA1"]))
def test_braid_relation_holds(token):
    rs = build_root_system(token)
    m = braid_order(rs, 0, 1)
    prod = rs.simple_reflection(0) * rs.simple_reflection(1)
    acc = rs.identity_element()
    for _ in range(m):
        acc = acc * prod
    assert acc.is_identity()
    assert mat_identity(rs.rank) == acc.matrix


# -- the indexed Weyl group against the matrix BFS it replaced --------------


def _matrix_bfs(rs) -> list[tuple[tuple, tuple[int, ...]]]:
    """Reference enumeration: (matrix, word) in shortlex BFS order, each
    element found as a tuple-matrix product w * s_i."""
    gens = [rs.simple_reflection(i).matrix for i in range(rs.rank)]
    e = mat_identity(rs.rank)
    seen = {e}
    order = [(e, ())]
    for m, word in order:
        for i, g in enumerate(gens):
            p = mat_mul(m, g)
            if p not in seen:
                seen.add(p)
                order.append((p, word + (i,)))
    return order


INDEXED_CASES = ["A1", "A2", "A3", "B2", "BC2", "G2", "A1xA1", "BC3", "F4",
                 "B3xG2", "B5"]


@pytest.mark.parametrize("token", INDEXED_CASES)
def test_indexed_group_matches_matrix_bfs(token):
    rs = build_root_system(token)
    ref = _matrix_bfs(rs)
    mats = [m for m, _ in ref]
    group = weyl_group(rs)
    assert list(group.words) == [w for _, w in ref]
    assert list(group.matrices) == mats
    assert [(w.matrix, w.word) for w in enumerate_group(rs)] == ref

    simple = [rs.simple_reflection(i).matrix for i in range(rs.rank)]
    ident = mat_identity(rs.rank)
    for w, m in enumerate(mats):
        assert [mats[x] for x in group.mul[w]] == [mat_mul(m, s) for s in simple]
        assert [mats[x] for x in group.left[w]] == [mat_mul(s, m) for s in simple]
        assert mat_mul(m, mats[group.inv[w]]) == ident

    by_matrix = dict(ref)
    assert [w.word for w in reflections(rs)] == [
        by_matrix[reflection_matrix(rs, line)] for line in rs.positive_lines]
    for m, word in ref:
        assert canonical_word(WeylElement(rs, m, ())) == word


@pytest.mark.parametrize("token", ["A3", "B3", "BC2", "G2", "F4", "A1xA1"])
def test_element_builds_one_matrix_along_its_word(token):
    rs = build_root_system(token)
    group = WeylGroup(rs)  # a fresh group: matrices not yet built
    got = [group.element(rs, w) for w in range(len(group))]
    assert "matrices" not in group.__dict__
    assert [(e.matrix, e.word) for e in got] == list(zip(group.matrices, group.words))


def test_canonical_word_rejects_foreign_matrix():
    rs = build_root_system("A", 2)
    with pytest.raises(RootSystemError):
        canonical_word(WeylElement(rs, ((2, 0), (0, 1)), ()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["F4", "B3xG2", "BC3"]), st.data())
def test_table_product_equals_matrix_product(token, data):
    rs = build_root_system(token)
    group = weyl_group(rs)
    letters = st.lists(st.integers(min_value=0, max_value=rs.rank - 1), max_size=12)
    ids, mats = [], []
    for word in (data.draw(letters), data.draw(letters)):
        w, m = 0, mat_identity(rs.rank)
        for i in word:
            w, m = group.mul[w][i], mat_mul(m, rs.simple_reflection(i).matrix)
        ids.append(w)
        mats.append(m)
    assert group.matrices[group.product(*ids)] == mat_mul(*mats)


# -- the id closure against the matrix BFS it replaced ----------------------


def matrix_subgroup_closure(gens: list[WeylElement],
                            cap: int = DEFAULT_GROUP_CAP) -> set[WeylElement]:
    """Reference closure: breadth-first by tuple-matrix products g·w.

    Only elements the BFS adds count against the cap, not the identity
    and generators it starts from.
    """
    rs = gens[0].system
    e = rs.identity_element()
    elements = {e.matrix: e}
    for g in gens:
        elements.setdefault(g.matrix, g)
    frontier = list(elements.values())
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                m = mat_mul(g.matrix, w.matrix)
                if m not in elements:
                    if len(elements) + 1 > cap:
                        raise CapExceeded(f"subgroup closure exceeds cap {cap}: "
                                          f"reached {cap + 1} elements")
                    nw = WeylElement(rs, m, g.word + w.word)
                    elements[m] = nw
                    nxt.append(nw)
        frontier = nxt
    return set(elements.values())


@pytest.mark.parametrize("token", ["A3", "BC3", "G2", "F4", "B3xG2"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_id_closure_matches_matrix_closure(token, data):
    rs = build_root_system(token)
    group = weyl_group(rs)
    words = data.draw(st.lists(st.lists(st.integers(0, rs.rank - 1), max_size=6),
                               min_size=1, max_size=3))
    gens = []
    for word in words:
        w = rs.identity_element()
        for i in word:
            w = w * rs.simple_reflection(i)
        gens.append(w)
    want = matrix_subgroup_closure(gens)
    ids = group.closure([group.id_of(g.matrix) for g in gens])
    got = subgroup_closure(gens)
    assert got == want == {group.element(rs, w) for w in ids}
    assert all(w.word == group.words[group.id_of(w.matrix)] for w in got)

    order = len(want)
    assert group.closure([group.id_of(g.matrix) for g in gens], order) == ids
    assert matrix_subgroup_closure(gens, order) == want
    if order == 1:
        return
    message = f"subgroup closure exceeds cap {order - 1}: reached {order} elements"
    with pytest.raises(CapExceeded) as err:
        subgroup_closure(gens, order - 1)
    assert str(err.value) == message
    seeds = {rs.identity_element()} | set(gens)
    if len(seeds) < order:  # else the reference adds nothing to count
        with pytest.raises(CapExceeded) as err:
            matrix_subgroup_closure(gens, order - 1)
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
    m = mat_mul(rs.simple_reflection(i).matrix, rs.simple_reflection(j).matrix)
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
