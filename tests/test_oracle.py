"""Finite-field oracle: enumeration counts, monomial fits, inference."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import permutations
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylorb import oracle
from weylorb.bundled import ORACLE_SPEC_NAMES, bundled_datum, oracle_spec_text
from weylorb.cli import main
from weylorb.coxeter import build_root_system
from weylorb.datum import ROLES, OrbitDatum, RaiseCell, generate_flag_datum, validate
from weylorb.oracle import (
    DEFAULT_Q_LIST,
    MatGroupSpec,
    OracleError,
    OracleReport,
    OrbitInfo,
    _adjoin,
    _arith,
    _canon,
    _close,
    _det_mod,
    _fmt_matrix,
    _inv_mod,
    _Level,
    _match,
    align_reports,
    compare,
    enumerate_orbits,
    fit_monomial,
    infer_datum,
    load_spec,
    spec_from_obj,
)

from references import DEFECTIVE_CASES, reference_membership

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


def _closure(gens, q: int, cap: int = 10**6) -> dict:
    """The pure closure of flat generators, as enumerate_orbits forms H."""
    arith = _arith(isqrt(len(gens[0])), q)
    return _close({arith.eye: None}, [arith.eye], list(gens), arith.mul, cap, "H")


def _chain_top(h_gens, q: int, order: int) -> _Level:
    """The top level of H's chain, as enumerate_orbits builds it."""
    flat = [tuple(x for row in h for x in row) for h in h_gens]
    return _Level(flat, [_inv_mod(h, q) for h in h_gens], order, _arith(len(h_gens[0]), q))


def test_closure_keys_wide_enough_past_q_256():
    unipotent = [(1, 1, 0, 1)]
    assert len(_closure(unipotent, 257, 10**4)) == 257
    assert len(_closure(unipotent, 251, 10**4)) == 251


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


# -- differential: the enumeration that builds all of G, kept as reference --

def _keys(mats: np.ndarray, q: int):
    """Per matrix of residues mod q, its entries as big-endian integers wide
    enough for q - 1, so keys compare as the row-major entry sequences do."""
    flat = mats.astype(np.uint8 if q <= 256 else ">u4").reshape(len(mats), -1)
    return map(np.ndarray.tobytes, flat)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _closure_reference(gens: np.ndarray, q: int, cap: int, what: str) -> np.ndarray:
    """All products of the generators, BFS order from the identity, one
    einsum layer at a time."""
    k = gens.shape[1]
    layers = [np.eye(k, dtype=np.int64)[None, :, :]]
    seen = set(_keys(layers[0], q))
    frontier = layers[0]
    while frontier.shape[0]:
        prods = np.einsum("aij,bjk->abik", frontier, gens) % q
        prods = prods.reshape(-1, k, k)
        fresh = []
        for i, b in enumerate(_keys(prods, q)):
            if b not in seen:
                seen.add(b)
                fresh.append(prods[i])
        if len(seen) > cap:
            raise OracleError(f"{what} closure exceeds cap {cap}")
        if not fresh:
            break
        frontier = np.stack(fresh)
        layers.append(frontier)
    return np.concatenate(layers)


def _canon_reference(mat: np.ndarray, h_all: np.ndarray, q: int) -> np.ndarray:
    """The lex-minimal element of mat·H by one lexsort over all of it."""
    prods = np.einsum("ij,njk->nik", mat, h_all) % q
    flat = prods.reshape(len(h_all), -1)
    return prods[int(np.lexsort(flat[:, ::-1].T)[0])]


def enumerate_orbits_reference(spec: MatGroupSpec, cap: int = 10**7) -> OracleReport:
    """B-orbits on G/H with G, B, H and every P_alpha enumerated in full,
    containment by key sets, points checked against |G|/|H|, and one
    scalar canonicalisation per coset product."""
    q, k = spec.q, spec.dimension
    g_arr, b_arr, h_arr = (np.array(m, dtype=np.int64)
                           for m in (spec.g_gens, spec.b_gens, spec.h_gens))
    g_all = _closure_reference(g_arr, q, cap, "G")
    g_bytes = set(_keys(g_all, q))
    h_all = _closure_reference(h_arr, q, cap, "H")
    if not g_bytes.issuperset(_keys(h_all, q)):
        raise OracleError("H is not contained in the group generated by G")
    if not g_bytes.issuperset(_keys(_closure_reference(b_arr, q, cap, "B"), q)):
        raise OracleError("B is not contained in the group generated by G")
    for alpha, mats in spec.parabolics.items():
        p_all = _closure_reference(np.array(mats, dtype=np.int64), q, cap, f"P_{alpha}")
        if not g_bytes.issuperset(_keys(p_all, q)):
            raise OracleError(f"P_{alpha} is not contained in the group generated by G")
    assert len(g_all) % len(h_all) == 0
    points = len(g_all) // len(h_all)

    def canon(mat):
        label = _canon_reference(mat, h_all, q)
        return next(_keys(label[None], q)), label

    key0, label0 = canon(np.eye(k, dtype=np.int64))
    labels, index, frontier = [label0], {key0: 0}, [0]
    while frontier:
        nxt = []
        for i in frontier:
            for g in g_arr:
                key, label = canon(g @ labels[i] % q)
                if key not in index:
                    index[key] = len(labels)
                    labels.append(label)
                    nxt.append(index[key])
        frontier = nxt
    assert len(labels) == points

    def partition_under(gen_arr):
        uf = _UnionFind(len(labels))
        for i, lab in enumerate(labels):
            for g in gen_arr:
                uf.union(i, index[canon(g @ lab % q)[0]])
        return uf

    buf = partition_under(b_arr)
    classes: dict[int, list[int]] = {}
    for i in range(len(labels)):
        classes.setdefault(buf.find(i), []).append(i)
    label_keys = list(index)
    ordered = sorted(classes.values(),
                     key=lambda m: (len(m), min(label_keys[i] for i in m)))
    orbit_of_coset, infos = {}, []
    for oi, members in enumerate(ordered):
        for i in members:
            orbit_of_coset[i] = oi
        best = min(members, key=label_keys.__getitem__)
        infos.append(OrbitInfo(representative=_fmt_matrix(labels[best].ravel().tolist(), k),
                               size=len(members)))
    merges = {}
    for alpha, mats in sorted(spec.parabolics.items()):
        puf = partition_under(np.array(mats, dtype=np.int64))
        pclasses: dict[int, set[int]] = {}
        for i in range(len(labels)):
            pclasses.setdefault(puf.find(i), set()).add(orbit_of_coset[i])
        merges[alpha] = tuple(sorted(tuple(sorted(c)) for c in pclasses.values()))
    return OracleReport(spec_name=spec.name, root_system=spec.root_system, q=q,
                        group_order=len(g_all), subgroup_order=len(h_all),
                        point_count=points, orbits=tuple(infos), merges=merges)


def _mul(a, b, q: int):
    return tuple(map(tuple, (np.array(a, dtype=np.int64) @ np.array(b) % q).tolist()))


def _inverse(g, q: int):
    """The inverse mod q as a tuple of rows."""
    return tuple(map(tuple, np.array(_inv_mod(g, q)).reshape(len(g), -1).tolist()))


def _conjugated(obj: dict, g, q: int) -> dict:
    """The spec with every generator M replaced by g M g^-1 mod q, pinned to q."""
    g_inv = _inverse(g, q)

    def conj(mats):
        return [_mul(_mul(g, m, q), g_inv, q) for m in mats]

    gens = obj["generators"]
    return {**obj, "q": q, "generators": {
        **{block: conj(gens[block]) for block in ("G", "B", "H")},
        "P": {a: conj(mats) for a, mats in gens.get("P", {}).items()}}}


def _elementary(k: int, i: int, j: int, c: int = 1):
    return tuple(tuple(int(r == s) + c * ((r, s) == (i, j)) for s in range(k))
                 for r in range(k))


def _diagonal(k: int, i: int, t: int):
    return tuple(tuple((t if r == i else 1) * (r == s) for s in range(k)) for r in range(k))


def _bruhat_obj(k: int, q: int, root: int) -> dict:
    """G = GL_k(F_q) and H = B upper triangular, root a primitive root mod q."""
    upper = [_elementary(k, i, i + 1) for i in range(k - 1)]
    lower = [_elementary(k, i + 1, i) for i in range(k - 1)]
    borel = [_diagonal(k, i, root) for i in range(k)] + upper
    return {"name": f"bruhat_gl{k}", "root_system": f"A{k - 1}", "q": q,
            "dimension": k,
            "generators": {"G": upper + lower + [_diagonal(k, 0, root)],
                           "B": borel, "H": borel,
                           "P": {str(a + 1): borel + [lower[a]] for a in range(k - 1)}}}


def _bundled_cases():
    for name in ORACLE_SPEC_NAMES:
        pinned = json.loads(oracle_spec_text(name))["q"]
        for q in (5, 7) if pinned is None else (pinned,):
            yield name, q


@pytest.mark.parametrize("name,q", list(_bundled_cases()), ids=str)
def test_enumeration_matches_reference_on_bundled(name, q):
    spec = load_spec(oracle_spec_text(name), q)
    assert run(name, q).to_obj() == enumerate_orbits_reference(spec).to_obj()
    h = np.array(spec.h_gens, dtype=np.int64)
    want = [tuple(m.ravel().tolist()) for m in _closure_reference(h, q, 10**6, "H")]
    assert list(_closure([tuple(m.ravel().tolist()) for m in h], q)) == want  # BFS order


_GL3_LENGTHS = (0, 1, 1, 2, 2, 3)  # l(w) for w in S_3


@pytest.mark.parametrize("obj,q", [
    (_conjugated(_bruhat_obj(2, 11, 2), ((3, 7), (5, 1)), 11), 11),
    (_bruhat_obj(3, 3, 2), 3),
    (_conjugated(_bruhat_obj(3, 3, 2), ((1, 2, 0), (0, 1, 1), (2, 0, 1)), 3), 3),
], ids=["gl2-B-conjugated-q11", "gl3-B-q3", "gl3-B-conjugated-q3"])
def test_enumeration_matches_reference_on_bruhat(obj, q):
    spec = spec_from_obj(obj, q)
    rep = enumerate_orbits(spec)
    assert rep.to_obj() == enumerate_orbits_reference(spec).to_obj()
    sizes = sorted(o.size for o in rep.orbits)
    assert sizes == sorted(q ** length for length in
                           ((0, 1) if spec.dimension == 2 else _GL3_LENGTHS))


def test_bruhat_gl3_at_q5_and_q7_matches_gen_flag_a2():
    """GL3/B with a primitive-root torus: six B-orbits of sizes q^l(w) at
    q = 5 and 7, and the inferred datum matches gen-flag A2.  Closing all
    of G, as enumerate_orbits_reference does, takes 35 s and 0.9 GB at
    q = 5, so the conjugated spec there is checked against the plain one,
    and its labels against the lexsort over all of H, instead."""
    start = time.perf_counter()
    reports = []
    for q, root in ((5, 2), (7, 3)):
        reports.append(enumerate_orbits(spec_from_obj(_bruhat_obj(3, q, root), q),
                                        cap=10**8))
        assert sorted(o.size for o in reports[-1].orbits) == [q**n for n in _GL3_LENGTHS]
    assert time.perf_counter() - start < 10  # scanning all of H per coset: 24-38 s
    inferred = infer_datum(reports, build_root_system("A2"))
    assert compare(generate_flag_datum(build_root_system("A2")), inferred.datum).match

    obj = _conjugated(_bruhat_obj(3, 5, 2), ((1, 2, 0), (0, 1, 3), (1, 0, 1)), 5)
    spec = spec_from_obj(obj, 5)
    conj = enumerate_orbits(spec)
    plain, aligned = align_reports([reports[0], conj])
    assert (aligned.group_order, aligned.subgroup_order, aligned.point_count) == (
        plain.group_order, plain.subgroup_order, plain.point_count)
    assert [o.size for o in aligned.orbits] == [o.size for o in plain.orbits]
    h_ref = _closure_reference(np.array(spec.h_gens, dtype=np.int64), 5, 10**5, "H")
    top = _chain_top(spec.h_gens, 5, len(h_ref))
    for orbit in conj.orbits:
        rep = np.array(json.loads(orbit.representative))
        assert np.array_equal(_canon_reference(rep, h_ref, 5), rep)
        for g in np.array(spec.g_gens):  # labels of the neighbouring cosets
            want = _canon_reference(g @ rep % 5, h_ref, 5)
            assert _canon(tuple((g @ rep % 5).ravel().tolist()), top) == tuple(
                want.ravel().tolist())


@st.composite
def _invertible(draw, qs=(2, 3, 5, 7, 257), ks=(1, 2, 3, 4)):
    q = draw(st.sampled_from(qs))
    k = draw(st.sampled_from(ks))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    mat = tuple(map(tuple, rows))
    assume(_det_mod(mat, q) != 0)
    return mat, q


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["torus", "torus_normalizer", "horospherical"]),
       _invertible(qs=(5, 7), ks=(2,)))
def test_enumeration_matches_reference_on_conjugates(name, case):
    g, q = case
    spec = spec_from_obj(_conjugated(json.loads(oracle_spec_text(name)), g, q), q)
    assert enumerate_orbits(spec).to_obj() == enumerate_orbits_reference(spec).to_obj()


@settings(max_examples=200, deadline=None)
@given(_invertible())
def test_inv_mod_is_inverse(case):
    mat, q = case
    k = len(mat)
    inv = np.array(_inv_mod(mat, q)).reshape(k, k)
    eye = np.eye(k, dtype=np.int64)
    assert np.array_equal(np.array(mat) @ inv % q, eye)
    assert np.array_equal(inv @ np.array(mat) % q, eye)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 7, 257, 65537]), st.integers(1, 6), st.randoms())
def test_unrolled_products_match_matmul(q, k, rnd):
    a, b = (np.array([rnd.randrange(q) for _ in range(k * k)]).reshape(k, k)
            for _ in range(2))
    arith = _arith(k, q)
    flat_a, flat_b = (tuple(m.ravel().tolist()) for m in (a, b))
    assert arith.mul(flat_a, flat_b) == tuple((a @ b % q).ravel().tolist())
    assert arith.vmul(flat_a[:k], flat_b) == tuple((a[0] @ b % q).tolist())
    assert arith.eye == tuple(np.eye(k, dtype=int).ravel().tolist())


@st.composite
def _canon_cases(draw):
    """Generators of a subgroup H, conjugated by a random g, and random
    matrices, singular ones included.  H is trivial, generated by signed
    permutations, one unipotent or one diagonal matrix, or an upper
    triangular group (unipotent part and one or two diagonal matrices,
    q <= 7), whose row-stabilizer chain is non-trivial for several levels."""
    kind = draw(st.sampled_from(["trivial", "signed", "unipotent", "diagonal", "upper"]))
    g, q = draw(_invertible(qs=(2, 3, 5, 7) if kind == "upper" else (2, 3, 5, 7, 257),
                            ks=(1, 2, 3)))
    k = len(g)
    if kind == "trivial":
        gens = [_diagonal(k, 0, 1)]
    elif kind == "signed" or k == 1:
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            perm = draw(st.permutations(range(k)))
            signs = draw(st.lists(st.sampled_from([1, q - 1]), min_size=k, max_size=k))
            gens.append(tuple(tuple(signs[r] * (perm[r] == c) for c in range(k))
                              for r in range(k)))
    elif kind == "unipotent":
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        gens = [_elementary(k, i, j, draw(st.integers(1, q - 1)))]
    elif kind == "diagonal":
        gens = [_diagonal(k, draw(st.integers(0, k - 1)), draw(st.integers(1, q - 1)))]
    else:
        gens = [_elementary(k, i, i + 1, draw(st.integers(1, q - 1))) for i in range(k - 1)]
        gens += [_diagonal(k, draw(st.integers(0, k - 1)), draw(st.integers(1, q - 1)))
                 for _ in range(draw(st.integers(1, 2)))]
    g_inv = _inverse(g, q)
    h_gens = [_mul(_mul(g, m, q), g_inv, q) for m in gens]
    n = draw(st.integers(1, 12))
    mats = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k * k, max_size=k * k),
                         min_size=n, max_size=n))
    if k > 1 and draw(st.booleans()):  # one matrix with a repeated row
        mats[0][k:2 * k] = mats[0][:k]
    return h_gens, [tuple(m) for m in mats], q


@settings(max_examples=200, deadline=None)
@given(_canon_cases())
def test_chain_canon_matches_lexsort(case):
    h_gens, mats, q = case
    k = len(h_gens[0])
    flat = [tuple(x for row in h for x in row) for h in h_gens]
    h_all = _closure(flat, q, 10**5)
    h_ref = _closure_reference(np.array(h_gens, dtype=np.int64), q, 10**5, "H")
    assert list(h_all) == [tuple(m.ravel().tolist()) for m in h_ref]  # BFS order
    arith = _arith(k, q)
    grown, gens = {arith.eye: None}, []
    for h in flat:  # adjoined one at a time: the same group
        _adjoin(grown, gens, h, arith.mul)
    assert set(grown) == set(h_all)
    top = _chain_top(h_gens, q, len(h_all))
    for m in mats:  # one chain for all: later matrices reuse its orbits
        want = _canon_reference(np.array(m).reshape(k, k), h_ref, q)
        assert _canon(m, top) == tuple(want.ravel().tolist())


def _outside_obj(block: str) -> dict:
    """G and H the upper unipotent group, with one lower unipotent
    generator put into B or into P_1."""
    upper, lower = [[1, 1], [0, 1]], [[1, 0], [1, 1]]
    gens = {"G": [upper], "B": [upper], "H": [upper], "P": {"1": [upper]}}
    if block == "B":
        gens["B"] = [upper, lower]
    else:
        gens["P"] = {"1": [upper, lower]}
    return {"name": "bad", "root_system": "A1", "q": None, "dimension": 2,
            "generators": gens}


@pytest.mark.parametrize("block,message", [
    ("B", "B is not contained in the group generated by G"),
    ("P", "P_1 is not contained in the group generated by G"),
])
def test_generator_outside_g_refused(block, message):
    spec = spec_from_obj(_outside_obj(block), 5)
    with pytest.raises(OracleError, match=f"^{message}$"):
        enumerate_orbits(spec)
    with pytest.raises(OracleError, match=f"^{message}$"):
        enumerate_orbits_reference(spec)


def test_cap_messages_name_cap_and_value():
    spec = load_spec(oracle_spec_text("torus"), 5)  # |G| = 480, |H| = 16
    assert enumerate_orbits(spec, cap=480).group_order == 480
    with pytest.raises(OracleError) as err:
        enumerate_orbits(spec, cap=479)
    assert str(err.value) == "G exceeds cap 479: points x |H| reached 480"
    with pytest.raises(OracleError) as err:  # stops at the first BFS layer past 10
        enumerate_orbits(spec, cap=10)
    assert str(err.value) == "H closure exceeds cap 10: reached 11 elements"
    upper = [[1, 1], [0, 1]]  # G = H = B, of order 5: the H cap is met exactly
    spec = spec_from_obj({"name": "u", "root_system": "A1", "q": None, "dimension": 2,
                          "generators": {"G": [upper], "B": [upper], "H": [upper]}}, 5)
    assert enumerate_orbits(spec, cap=5).subgroup_order == 5
    with pytest.raises(OracleError) as err:
        enumerate_orbits(spec, cap=4)
    assert str(err.value) == "H closure exceeds cap 4: reached 5 elements"


def test_parabolic_class_not_union_of_b_orbits_refused():
    obj = json.loads(oracle_spec_text("torus"))
    obj["generators"]["P"] = {"1": obj["generators"]["H"][:1]}  # a torus, not a parabolic
    with pytest.raises(OracleError, match="^P_1 class is not a union of B-orbits$"):
        enumerate_orbits(spec_from_obj(obj, 5))


def test_schreier_generator_outside_h_is_named(monkeypatch):
    # a canonicalisation that sends every coset to H itself
    monkeypatch.setattr(oracle, "_canon", lambda m, level: level.arith.eye)
    with pytest.raises(OracleError) as err:
        enumerate_orbits(load_spec(oracle_spec_text("torus"), 5))
    assert str(err.value) == ("Schreier generator [[1,1],[0,1]] at point "
                              "[[1,0],[0,1]], G generator 0, is not in H")


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


TORUS_VS_RANK1_U = [
    "orbit count mismatch: 2 vs 3",
    "unmatched reference orbit z: dim 1, rk 1",
    "unmatched candidate orbit o2: dim 1, rk 0, size(q) = 1 * q^1 * (q-1)^0",
    "unmatched candidate orbit o3: dim 1, rk 0, size(q) = 1 * q^1 * (q-1)^0",
]


def test_compare_count_mismatch_names_unmatched_orbits(capsys):
    reference = bundled_datum("rank1_u")
    inferred = infer_datum([run("torus", 5), run("torus", 7)], reference.root_system)
    rep = compare(reference, inferred.datum, inferred.fits)
    assert (rep.match, list(rep.lines)) == (False, TORUS_VS_RANK1_U)
    # without fits the candidate's orbits are named by dim and rk alone
    assert [line.split(", size")[0] for line in TORUS_VS_RANK1_U] == list(
        compare(reference, inferred.datum).lines)
    # the reference's y pairs with o1; the same orbits, seen from the other side
    assert list(compare(inferred.datum, reference).lines) == [
        "orbit count mismatch: 3 vs 2",
        "unmatched reference orbit o2: dim 1, rk 0",
        "unmatched reference orbit o3: dim 1, rk 0",
        "unmatched candidate orbit z: dim 1, rk 1"]
    assert main(["oracle", "compare", "torus", "rank1_u"]) == 1
    assert capsys.readouterr().out == "\n".join(TORUS_VS_RANK1_U) + "\n"


def test_compare_ri_n_identified():
    rep = compare(bundled_datum("rank1_ri"), bundled_datum("rank1_n"))
    assert rep.match


def test_compare_different_systems():
    rep = compare(bundled_datum("rank1_u"), bundled_datum("product_a1a1"))
    assert not rep.match
    assert any("root system mismatch" in line for line in rep.lines)


def reference_signature(d: OrbitDatum, oid: str) -> tuple:
    """Per alpha with cells, the kind class and role of oid's first alpha-cell,
    by one membership probe per orbit and alpha."""
    sig = []
    for alpha in sorted(d.cells):
        hit = reference_membership(d).get((alpha, oid))
        if hit is not None:
            cell, role = hit
            hit = (oracle._kindclass(cell.kind),
                   "z" if cell.kind == "RT" and role != "y" else role)
        sig.append((alpha, hit))
    return tuple(sig)


@pytest.mark.parametrize(
    "d", [bundled_datum(n) for n in ("rank1_tu", "rank1_rt", "rank1_ri", "sl3_so12",
                                     "product_a1a1")]
    + [generate_flag_datum(build_root_system("A2"))] + DEFECTIVE_CASES,
    ids=lambda d: d.root_system.to_text())
def test_compare_colours_match_reference_signatures(d):
    assert oracle._structure(d)[0] == [(reference_signature(d, o.id), o.open)
                                       for o in d.orbits]


def _relabelled(d: OrbitDatum, seed: int) -> OrbitDatum:
    ids = list(d.orbit_ids())
    fresh = [f"x{i}" for i in range(len(ids))]
    random.Random(seed).shuffle(fresh)
    new = dict(zip(ids, fresh))
    cells = {alpha: tuple(RaiseCell(alpha, c.kind,
                                    **{r: new[getattr(c, r)] for r in ROLES[c.kind]})
                          for c in cs)
             for alpha, cs in d.cells.items()}
    return OrbitDatum(d.root_system, tuple(o._replace(id=new[o.id]) for o in d.orbits),
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
