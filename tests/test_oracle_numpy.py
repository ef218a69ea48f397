"""The oracle against the references built on numpy: the einsum closure of
a group, the lexsort over all of H for a coset's label, and the
enumeration that closes all of G and every P_alpha.  The whole module is
skipped where numpy is not installed; every other test file needs only
pytest and hypothesis."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorb.bundled import oracle_spec_text
from weylorb.oracle import (
    MatGroupSpec,
    OracleError,
    OracleReport,
    OrbitInfo,
    _canon,
    _fmt_matrix,
    enumerate_orbits,
    spec_from_obj,
)

from references import (
    BRUHAT_CASES,
    GL3_B_CONJUGATED_Q5,
    bundled_cases,
    canon_cases,
    chain_top,
    conjugated,
    invertible,
    outside_obj,
    reference_closure,
)

np = pytest.importorskip("numpy")


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


@pytest.mark.parametrize("name,q", list(bundled_cases()), ids=str)
def test_enumeration_matches_reference_on_bundled(name, q):
    spec = spec_from_obj(json.loads(oracle_spec_text(name)), q)
    assert enumerate_orbits(spec).to_obj() == enumerate_orbits_reference(spec).to_obj()
    h = np.array(spec.h_gens, dtype=np.int64)
    want = [tuple(m.ravel().tolist()) for m in _closure_reference(h, q, 10**6, "H")]
    flat = [tuple(m.ravel().tolist()) for m in h]
    assert list(reference_closure(flat, q)) == want  # BFS order


@pytest.mark.parametrize("obj,q", BRUHAT_CASES.values(), ids=BRUHAT_CASES)
def test_enumeration_matches_reference_on_bruhat(obj, q):
    spec = spec_from_obj(obj, q)
    assert enumerate_orbits(spec).to_obj() == enumerate_orbits_reference(spec).to_obj()


def test_bruhat_gl3_conjugate_labels_match_lexsort():
    """GL3/B conjugated at q = 5, where closing all of G takes 35 s: each
    orbit's representative, and the label of each coset next to it, is
    the lexsort minimum of its coset over all of H."""
    spec = spec_from_obj(GL3_B_CONJUGATED_Q5, 5)
    h_ref = _closure_reference(np.array(spec.h_gens, dtype=np.int64), 5, 10**5, "H")
    top = chain_top(spec.h_gens, 5, len(h_ref))
    for orbit in enumerate_orbits(spec).orbits:
        rep = np.array(json.loads(orbit.representative))
        assert np.array_equal(_canon_reference(rep, h_ref, 5), rep)
        for g in np.array(spec.g_gens):  # labels of the neighbouring cosets
            want = _canon_reference(g @ rep % 5, h_ref, 5)
            assert _canon(tuple((g @ rep % 5).ravel().tolist()), top) == tuple(
                want.ravel().tolist())


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["torus", "torus_normalizer", "horospherical"]),
       invertible(qs=(5, 7), ks=(2,)))
def test_enumeration_matches_reference_on_conjugates(name, case):
    g, q = case
    spec = spec_from_obj(conjugated(json.loads(oracle_spec_text(name)), g, q), q)
    assert enumerate_orbits(spec).to_obj() == enumerate_orbits_reference(spec).to_obj()


@settings(max_examples=200, deadline=None)
@given(canon_cases())
def test_chain_canon_matches_lexsort(case):
    h_gens, mats, q = case
    k = len(h_gens[0])
    flat = [tuple(x for row in h for x in row) for h in h_gens]
    h_all = reference_closure(flat, q, 10**5)
    h_ref = _closure_reference(np.array(h_gens, dtype=np.int64), q, 10**5, "H")
    assert list(h_all) == [tuple(m.ravel().tolist()) for m in h_ref]  # BFS order
    # one chain given |H|, one that reads |H| off H's Schreier–Sims chain
    tops = chain_top(h_gens, q, len(h_all)), chain_top(h_gens, q)
    for m in mats:  # one chain for all: later matrices reuse its orbits
        want = _canon_reference(np.array(m).reshape(k, k), h_ref, q)
        assert [_canon(m, top) for top in tops] == [tuple(want.ravel().tolist())] * 2


@pytest.mark.parametrize("block,message", [
    ("B", "B is not contained in the group generated by G"),
    ("P", "P_1 is not contained in the group generated by G"),
])
def test_generator_outside_g_refused_by_the_reference(block, message):
    with pytest.raises(OracleError, match=f"^{message}$"):
        enumerate_orbits_reference(spec_from_obj(outside_obj(block), 5))
