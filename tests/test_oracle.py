"""Finite-field oracle: enumeration counts, monomial fits, inference."""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb.bundled import bundled_datum, oracle_spec_text
from weylorb.coxeter import build_root_system
from weylorb.datum import ROLES, OrbitDatum, RaiseCell, generate_flag_datum, validate
from weylorb.oracle import (
    DEFAULT_Q_LIST,
    OracleError,
    OracleReport,
    OrbitInfo,
    _closure,
    _det_mod,
    _match,
    align_reports,
    compare,
    enumerate_orbits,
    fit_monomial,
    infer_datum,
    load_spec,
    spec_from_obj,
)

_CACHE: dict[tuple[str, int], OracleReport] = {}


def run(name: str, q: int) -> OracleReport:
    key = (name, q)
    if key not in _CACHE:
        _CACHE[key] = enumerate_orbits(load_spec(oracle_spec_text(name), q))
    return _CACHE[key]


# (group order, subgroup order, points, orbit sizes, merges)
EXPECTED = {
    ("torus", 5): (480, 16, 30, (5, 5, 20), {1: ((0, 1, 2),)}),
    ("torus", 7): (2016, 36, 56, (7, 7, 42), {1: ((0, 1, 2),)}),
    ("torus_normalizer", 5): (480, 32, 15, (5, 10), {1: ((0, 1),)}),
    ("torus_normalizer", 7): (2016, 72, 28, (7, 21), {1: ((0, 1),)}),
    ("horospherical", 5): (480, 5, 96, (16, 80), {1: ((0, 1),)}),
    ("horospherical", 7): (2016, 7, 288, (36, 252), {1: ((0, 1),)}),
    ("product_diag_q5", 5): (14400, 120, 120, (20, 100),
                             {1: ((0, 1),), 2: ((0, 1),)}),
    ("product_diag_q7", 7): (112896, 336, 336, (42, 294),
                             {1: ((0, 1),), 2: ((0, 1),)}),
}


@pytest.mark.parametrize("name,q", sorted(EXPECTED), ids=lambda v: str(v))
def test_enumeration_frozen_counts(name, q):
    g, h, pts, sizes, merges = EXPECTED[(name, q)]
    rep = run(name, q)
    assert rep.group_order == g
    assert rep.subgroup_order == h
    assert rep.point_count == pts
    assert tuple(o.size for o in rep.orbits) == sizes
    assert rep.merges == merges
    assert sum(o.size for o in rep.orbits) == g // h
    assert rep.orbit_count == len(sizes)


def test_enumeration_deterministic():
    a = enumerate_orbits(load_spec(oracle_spec_text("torus"), 5))
    b = enumerate_orbits(load_spec(oracle_spec_text("torus"), 5))
    assert a == b
    assert json.dumps(a.to_obj()) == json.dumps(b.to_obj())


def test_canonical_representatives():
    rep = run("torus", 5)
    assert [o.representative for o in rep.orbits] == [
        "[[0,1],[1,0]]", "[[1,0],[0,1]]", "[[0,1],[1,1]]"]


def test_report_serialization_keys():
    obj = run("horospherical", 5).to_obj()
    assert obj["orbitCount"] == 2
    assert obj["orbits"][0]["size"] == 16
    assert obj["merges"] == {"1": [[0, 1]]}
    assert "spec" in obj and obj["q"] == 5
    lines = run("horospherical", 5).lines()
    assert any("2 B-orbits" in line for line in lines)


def test_spec_pinned_q_refuses_retarget():
    with pytest.raises(OracleError, match="pinned"):
        load_spec(oracle_spec_text("product_diag_q5"), 7)


def test_spec_rejects_nonprime_and_bad_fields():
    obj = json.loads(oracle_spec_text("torus"))
    with pytest.raises(OracleError, match="not prime"):
        spec_from_obj(obj, 6)
    obj2 = dict(obj)
    obj2["surprise"] = 1
    with pytest.raises(OracleError, match="unknown spec fields"):
        spec_from_obj(obj2, 5)


def test_closure_keys_wide_enough_past_q_256():
    unipotent = np.array([[[1, 1], [0, 1]]], dtype=np.int64)
    assert len(_closure(unipotent, 257, 10**4, "U")) == 257
    assert len(_closure(unipotent, 251, 10**4, "U")) == 251


def test_spec_rejects_q_overflowing_int64():
    obj = json.loads(oracle_spec_text("torus"))
    with pytest.raises(OracleError, match="too large"):
        spec_from_obj(obj, 2147483659)  # prime, and 2 q^2 >= 2^63


def det_laplace(mat, q: int) -> int:
    """Determinant mod q by cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0] % q
    return sum((-1) ** j * mat[0][j]
               * det_laplace([row[:j] + row[j + 1:] for row in mat[1:]], q)
               for j in range(len(mat))) % q


@st.composite
def _square_matrices(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 257]))
    k = draw(st.integers(1, 4))
    entry = st.integers(-600, 600)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                         min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        # make one row a multiple of another, so the matrix is singular
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(entry)
        rows[j] = [c * x for x in rows[i]]
    return tuple(tuple(row) for row in rows), q


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
def test_det_mod_matches_laplace(case):
    mat, q = case
    assert _det_mod(mat, q) == det_laplace(mat, q)


def test_spec_rejects_singular_generator():
    # diag(3, 1) degenerates mod 3; this is why tiny primes are excluded
    with pytest.raises(OracleError, match="singular"):
        load_spec(oracle_spec_text("torus"), 3)


def test_h_outside_g_detected():
    obj = {
        "name": "bad", "root_system": "A1", "q": None, "dimension": 2,
        "generators": {
            "G": [[[1, 1], [0, 1]]],
            "B": [[[1, 1], [0, 1]]],
            "H": [[[1, 0], [1, 1]]],
        },
    }
    with pytest.raises(OracleError, match="H is not contained"):
        enumerate_orbits(spec_from_obj(obj, 5))


def test_cap_enforced():
    spec = load_spec(oracle_spec_text("torus"), 5)
    with pytest.raises(OracleError, match="cap"):
        enumerate_orbits(spec, cap=100)


def test_fit_monomial_frozen_cases():
    assert fit_monomial([(5, 20), (7, 42)]) == (1, 1, Fraction(1))
    assert fit_monomial([(5, 5), (7, 7)]) == (1, 0, Fraction(1))
    assert fit_monomial([(5, 10), (7, 21)]) == (1, 1, Fraction(1, 2))
    assert fit_monomial([(5, 16), (7, 36)]) == (0, 2, Fraction(1))
    assert fit_monomial([(5, 80), (7, 252)]) == (1, 2, Fraction(1))
    assert fit_monomial([(5, 100), (7, 294)]) == (2, 1, Fraction(1))


def test_fit_monomial_no_solution():
    assert fit_monomial([(5, 6), (7, 8)]) is None


def test_fit_monomial_needs_primes():
    with pytest.raises(OracleError, match="at least two"):
        fit_monomial([(5, 20)])
    with pytest.raises(OracleError, match="ambiguous"):
        fit_monomial([(5, 20), (5, 20)])


def test_default_q_list():
    assert DEFAULT_Q_LIST == (5, 7)


def _infer(*name_q, token):
    reports = [run(n, q) for n, q in name_q]
    return infer_datum(reports, build_root_system(token))


def test_infer_torus_is_rt():
    inf = _infer(("torus", 5), ("torus", 7), token="A1")
    d = inf.datum
    assert [c.kind for c in d.cells[1]] == ["RT"]
    assert [(o.id, o.dim, o.rk, o.open) for o in d.orbits] == [
        ("o2", 1, 0, False), ("o3", 1, 0, False), ("o1", 2, 1, True)]
    assert validate(d).ok
    assert any("c and s are invisible" in n for n in inf.notes)
    assert dict(inf.point_counts)["o1"] == ((5, 20), (7, 42))
    fits = dict(inf.fits)
    assert fits["o1"] == (1, 1, Fraction(1))
    assert fits["o2"] == (1, 0, Fraction(1))


def test_infer_torus_matches_bundled_rt():
    inf = _infer(("torus", 5), ("torus", 7), token="A1")
    rep = compare(bundled_datum("rank1_rt"), inf.datum)
    assert rep.match
    assert rep.lines == ()


def test_infer_normalizer_flags_ri_n():
    inf = _infer(("torus_normalizer", 5), ("torus_normalizer", 7), token="A1")
    assert [c.kind for c in inf.datum.cells[1]] == ["RI"]
    assert any("RI|N" in n and "ambiguous" in n for n in inf.notes)
    assert dict(inf.fits)["o1"] == (1, 1, Fraction(1, 2))
    assert compare(bundled_datum("rank1_ri"), inf.datum).match
    assert compare(bundled_datum("rank1_n"), inf.datum).match
    bad = compare(bundled_datum("rank1_u"), inf.datum)
    assert not bad.match
    assert any("cell kind mismatch" in line for line in bad.lines)


def test_infer_horospherical_is_u():
    inf = _infer(("horospherical", 5), ("horospherical", 7), token="A1")
    assert [c.kind for c in inf.datum.cells[1]] == ["U"]
    assert [(o.id, o.dim, o.rk) for o in inf.datum.orbits] == [
        ("o2", 2, 2), ("o1", 3, 2)]
    assert validate(inf.datum).ok


def test_infer_product_is_u_per_factor():
    inf = _infer(("product_diag_q5", 5), ("product_diag_q7", 7), token="A1xA1")
    assert {a: [c.kind for c in cs] for a, cs in inf.datum.cells.items()} == {
        1: ["U"], 2: ["U"]}
    rep = compare(bundled_datum("product_a1a1"), inf.datum)
    assert rep.match
    assert validate(inf.datum).ok


def test_infer_serializes():
    inf = _infer(("torus", 5), ("torus", 7), token="A1")
    obj = inf.to_obj()
    assert sorted(obj) == ["confidence", "datum", "fits", "pointCounts"]
    assert obj["pointCounts"]["o1"] == {"5": 20, "7": 42}
    json.dumps(obj)


def test_infer_refuses_one_prime():
    with pytest.raises(OracleError, match="two distinct primes"):
        infer_datum([run("torus", 5)], build_root_system("A1"))


def test_infer_refuses_duplicate_primes():
    with pytest.raises(OracleError, match="distinct"):
        infer_datum([run("torus", 5), run("torus", 5)], build_root_system("A1"))


def _tiny_report(q: int, sizes: tuple[int, ...]) -> OracleReport:
    return OracleReport(
        spec_name="fake", root_system="A1", q=q, group_order=1,
        subgroup_order=1, point_count=sum(sizes),
        orbits=tuple(OrbitInfo(representative=f"r{i}", size=s)
                     for i, s in enumerate(sizes)),
        merges={1: (tuple(range(len(sizes))),)})


def test_infer_rejects_small_characteristic():
    reports = [_tiny_report(3, (3, 6)), _tiny_report(5, (5, 20))]
    with pytest.raises(OracleError, match="q = 3 rejected"):
        infer_datum(reports, build_root_system("A1"))


def test_infer_refuses_unstable_counts():
    reports = [_tiny_report(5, (5, 20)), _tiny_report(7, (7, 21, 21))]
    with pytest.raises(OracleError, match="not polynomial-stable"):
        infer_datum(reports, build_root_system("A1"))


def test_infer_wrong_root_system():
    with pytest.raises(OracleError, match="different root system"):
        infer_datum([run("torus", 5), run("torus", 7)],
                    build_root_system("B2"))


def test_compare_self_match():
    for name in ("rank1_u", "rank1_rt", "sl3_so12", "product_a1a1"):
        d = bundled_datum(name)
        rep = compare(d, d)
        assert rep.match and rep.lines == ()


def test_compare_counts_mismatch():
    rep = compare(bundled_datum("rank1_rt"), bundled_datum("rank1_u"))
    assert not rep.match
    assert any("orbit count mismatch" in line for line in rep.lines)


def test_compare_ri_n_identified():
    rep = compare(bundled_datum("rank1_ri"), bundled_datum("rank1_n"))
    assert rep.match


def test_compare_different_systems():
    rep = compare(bundled_datum("rank1_u"), bundled_datum("product_a1a1"))
    assert not rep.match
    assert any("root system mismatch" in line for line in rep.lines)


def _relabelled(d: OrbitDatum, seed: int) -> OrbitDatum:
    ids = list(d.orbit_ids())
    fresh = [f"x{i}" for i in range(len(ids))]
    random.Random(seed).shuffle(fresh)
    new = dict(zip(ids, fresh))
    cells = {alpha: tuple(RaiseCell(alpha, c.kind,
                                    **{r: new[getattr(c, r)] for r in ROLES[c.kind]})
                          for c in cs)
             for alpha, cs in d.cells.items()}
    return OrbitDatum(d.root_system, tuple(replace(o, id=new[o.id]) for o in d.orbits),
                      cells)


def test_compare_relabelled_flag_datum():
    d = generate_flag_datum(build_root_system("B3"))
    e = _relabelled(d, 3)
    start = time.perf_counter()
    assert compare(d, e).match
    first, *rest = e.cells[2]
    swapped = dict(e.cells)
    swapped[2] = (RaiseCell(2, "U", y=first.z, z=first.y), *rest)
    rep = compare(d, OrbitDatum(e.root_system, e.orbits, swapped))
    assert time.perf_counter() - start < 5
    assert not rep.match
    assert rep.lines == ("no structure-preserving bijection of orbits exists",)


def _bruhat_report(q: int, seed: int) -> OracleReport:
    """Orbits of size q^l(w) for w in S4, shuffled inside each length, with
    the merge classes {w, s_a w} of the Bruhat cells."""
    d = generate_flag_datum(build_root_system("A3"))
    ids = list(d.orbit_ids())
    random.Random(seed).shuffle(ids)
    ids.sort(key=lambda oid: d.orbit(oid).dim)
    at = {oid: i for i, oid in enumerate(ids)}
    merges = {alpha: tuple(sorted(tuple(sorted((at[c.y], at[c.z]))) for c in cs))
              for alpha, cs in d.cells.items()}
    orbits = tuple(OrbitInfo(representative=oid, size=q ** d.orbit(oid).dim)
                   for oid in ids)
    return OracleReport(spec_name="bruhat", root_system="A3", q=q, group_order=1,
                        subgroup_order=1, point_count=sum(o.size for o in orbits),
                        orbits=orbits, merges=merges)


def test_align_reports_tie_heavy():
    base, other = _bruhat_report(5, 1), _bruhat_report(7, 2)
    ties = [sum(o.size == 7**k for o in other.orbits) for k in range(7)]
    assert ties == [1, 3, 5, 6, 5, 3, 1]
    start = time.perf_counter()
    aligned = align_reports([base, other])
    assert time.perf_counter() - start < 5
    # left multiplication labels the merges, so the alignment is unique
    assert ([o.representative for o in aligned[1].orbits]
            == [o.representative for o in base.orbits])
    assert aligned[1].merges == base.merges
    assert [o.size for o in aligned[1].orbits] == [o.size for o in other.orbits]


def _image(f, block):
    label, groups = block
    return label, tuple(frozenset(f[v] for v in g) for g in groups)


def _brute_force_match(ca, ba, cb, bb):
    """Reference: the first permutation that keeps colours, label counts
    and maps every block of side a onto a block of side b."""
    if sorted(label for label, _ in ba) != sorted(label for label, _ in bb):
        return None
    targets = {_image(range(len(cb)), b) for b in bb}
    for f in permutations(range(len(ca))):
        if (all(cb[f[v]] == c for v, c in enumerate(ca))
                and all(_image(f, b) in targets for b in ba)):
            return f
    return None


@st.composite
def _structures(draw):
    """Two coloured block structures on at most 7 nodes; side b is often a
    relabelled copy of side a, sometimes with one block redrawn.  A
    block's label fixes its number of groups, as _match requires."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)

    def block():
        label = draw(st.integers(0, 2))
        groups = draw(st.lists(st.lists(node, min_size=1, max_size=2).map(tuple),
                               min_size=label + 1, max_size=label + 1))
        return label, tuple(groups)

    ca = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    ba = [block() for _ in range(draw(st.integers(0, 6)))]
    f = draw(st.permutations(range(n)))
    cb = [0] * n
    for v, c in enumerate(ca):
        cb[f[v]] = c
    bb = [_image(f, b) for b in ba]
    bb = [(label, tuple(tuple(sorted(g)) for g in groups)) for label, groups in bb]
    bb = draw(st.permutations(bb))
    if bb and draw(st.booleans()):
        i = draw(st.integers(0, len(bb) - 1))
        bb[i] = block()
    return ca, ba, cb, bb


@settings(max_examples=150, deadline=None)
@given(_structures())
def test_matcher_agrees_with_brute_force(structure):
    ca, ba, cb, bb = structure
    found = _match(ca, ba, cb, bb)
    expected = _brute_force_match(ca, ba, cb, bb)
    assert (found is None) == (expected is None)
    if found is not None:
        assert sorted(found) == list(range(len(ca)))
        assert all(cb[found[v]] == c for v, c in enumerate(ca))
        targets = {_image(range(len(cb)), b) for b in bb}
        assert all(_image(found, b) in targets for b in ba)
