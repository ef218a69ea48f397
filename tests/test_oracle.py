"""Finite-field oracle: enumeration counts, monomial fits, inference."""

from __future__ import annotations

import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylorb import oracle
from weylorb.bundled import ORACLE_SPEC_NAMES, bundled_datum, oracle_spec_text
from weylorb.cli import main
from weylorb.coxeter import build_root_system
from weylorb.datum import (
    DatumFormatError,
    OrbitDatum,
    RaiseCell,
    generate_flag_datum,
    validate,
)
from weylorb.oracle import (
    DEFAULT_Q_LIST,
    OracleError,
    OracleReport,
    OrbitInfo,
    _arith,
    _canon,
    _flat,
    _fmt_matrix,
    _inv_mod,
    _match,
    align_reports,
    compare,
    enumerate_orbits,
    fit_monomial,
    infer_datum,
    spec_from_obj,
)

from references import (
    BRUHAT_CASES,
    DEFECTIVE_CASES,
    GL3_B_CONJUGATED_Q5,
    bruhat_obj,
    bundled_cases,
    canon_cases,
    chain_top,
    conjugated,
    det_laplace,
    diagonal,
    elementary,
    invertible,
    mat_identity,
    mod_inverse,
    mod_mul,
    outside_obj,
    reference_certified_enumeration,
    reference_closure,
    reference_enumerate_by_act,
    reference_fit_monomial,
    reference_membership,
    reference_spec_from_obj,
    reference_top,
)

_CACHE: dict[tuple[str, int], OracleReport] = {}


def run(name: str, q: int) -> OracleReport:
    key = (name, q)
    if key not in _CACHE:
        _CACHE[key] = enumerate_orbits(spec_from_obj(json.loads(oracle_spec_text(name)), q))
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
    a = enumerate_orbits(spec_from_obj(json.loads(oracle_spec_text("torus")), 5))
    b = enumerate_orbits(spec_from_obj(json.loads(oracle_spec_text("torus")), 5))
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
        spec_from_obj(json.loads(oracle_spec_text("product_diag_q5")), 7)
    # a 4,000-digit q, which JSON reads, is quoted by its first 32 characters
    with pytest.raises(OracleError) as err:
        spec_from_obj({**json.loads(oracle_spec_text("torus")), "q": int("9" * 4000)}, 5)
    assert str(err.value) == f"spec 'torus' is pinned to q = {'9' * 32}..., cannot load at q = 5"


def test_spec_rejects_nonprime_and_bad_fields():
    obj = json.loads(oracle_spec_text("torus"))
    with pytest.raises(OracleError, match="not prime"):
        spec_from_obj(obj, 6)
    obj2 = dict(obj)
    obj2["surprise"] = 1
    with pytest.raises(OracleError, match="unknown spec fields"):
        spec_from_obj(obj2, 5)


_DELETE = object()


def _torus_with(path: tuple, value) -> dict:
    """The torus spec with the field at path (keys and indices) set to
    value, or deleted when value is _DELETE."""
    obj = json.loads(oracle_spec_text("torus"))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return obj


#: Malformed torus specs: (path to the field, its value, the error).
_MALFORMED_SPECS = [
    # loaded truncated by int() and exit 0 before exact type tests
    (("dimension",), 2.9, "spec: dimension must be an integer >= 1"),
    (("q",), 5.0, "spec: q must be null or an integer"),
    (("generators", "G", 2, 0, 0), 1.5, "G generators: matrix entries must be integers"),
    # a traceback and exit 1 before them
    (("q",), "abc", "spec: q must be null or an integer"),
    (("generators", "B", 0, 1, 1), None, "B generators: matrix entries must be integers"),
    (("generators", "B"), _DELETE, "missing generator blocks: ['B']"),
    (("root_system",), 5, "spec: root_system must be a string"),
    (("generators", "P", "1.5"), [], "P: bad simple root key '1.5'"),
    # taken silently: a bool for an integer, one root named twice, a
    # string of notes read a character at a time, a non-string name
    (("dimension",), True, "spec: dimension must be an integer >= 1"),
    (("generators", "P", "01"), [[[1, 0], [0, 1]]],
     "P: keys '1' and '01' both name simple root 1"),
    (("notes",), "abc", "spec: notes must be a list of strings"),
    (("name",), 7, "spec: name must be a string"),
    (("generators", "P"), [], "spec: generators P must be an object keyed by simple root index"),
    (("generators", "H"), {}, "H generators: must be a list of matrices"),
    # past MAX_DIMENSION, which bounds the k^3 unrolled products _arith compiles
    (("dimension",), 17, "spec: dimension 17 exceeds the limit 16"),
]


@pytest.mark.parametrize("path,value,message", _MALFORMED_SPECS,
                         ids=[".".join(map(str, p)) + ("-deleted" if v is _DELETE else f"={v!r}")
                              for p, v, _ in _MALFORMED_SPECS])
def test_malformed_spec_is_refused_naming_the_field(tmp_path, capsys, path, value, message):
    obj = _torus_with(path, value)
    with pytest.raises(OracleError) as err:
        spec_from_obj(obj, 5)
    assert str(err.value) == message
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["oracle", "enumerate", str(spec), "--q-list", "5"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("obj", [[], "torus", None, 5])
def test_spec_that_is_not_an_object_is_refused(tmp_path, capsys, obj):
    with pytest.raises(OracleError, match="^oracle spec must be a JSON object$"):
        spec_from_obj(obj, 5)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["oracle", "enumerate", str(spec)]) == 2
    assert capsys.readouterr().err == "error: oracle spec must be a JSON object\n"


@pytest.mark.parametrize("name,q", [(name, q) for name in ORACLE_SPEC_NAMES for q in (5, 7)])
def test_bundled_specs_load_as_the_reference_loader_does(name, q):
    obj = json.loads(oracle_spec_text(name))
    try:
        want = reference_spec_from_obj(obj, q)
    except OracleError as exc:  # a spec pinned to the other prime
        with pytest.raises(OracleError) as err:
            spec_from_obj(obj, q)
        assert str(err.value) == str(exc)
        return
    assert spec_from_obj(obj, q) == want


def _chain_order(h_gens, q: int) -> int:
    """|H| as enumerate_orbits reads it: off H's Schreier–Sims chain."""
    return chain_top(h_gens, q).order


def test_closure_keys_wide_enough_past_q_256():
    unipotent = ((1, 1), (0, 1))
    for q in (257, 251):
        assert len(reference_closure([(1, 1, 0, 1)], q, 10**4)) == q
        assert _chain_order([unipotent], q) == q


def test_spec_rejects_q_overflowing_int64():
    obj = json.loads(oracle_spec_text("torus"))
    with pytest.raises(OracleError, match="too large"):
        spec_from_obj(obj, 2147483659)  # prime, and 2 q^2 >= 2^63


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
def test_inv_mod_is_none_exactly_when_laplace_det_is_zero(case):
    mat, q = case
    assert (_inv_mod(mat, q) is None) == (det_laplace(mat, q) == 0)


def test_spec_rejects_singular_generator():
    # diag(3, 1) degenerates mod 3; this is why tiny primes are excluded
    with pytest.raises(OracleError, match=r"^G generators: singular generator "):
        spec_from_obj(json.loads(oracle_spec_text("torus")), 3)


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
    spec = spec_from_obj(json.loads(oracle_spec_text("torus")), 5)
    with pytest.raises(OracleError, match="cap"):
        enumerate_orbits(spec, cap=100)


def _h_size(h_gens, q: int) -> int:
    """|H| as the BFS closure of all of H counts it."""
    return len(reference_closure(_flat(h_gens), q, 10**5))


@pytest.mark.parametrize("name,q", [*bundled_cases(), ("bruhat_gl3", 5), ("bruhat_gl3", 7)],
                         ids=str)
def test_chain_order_is_the_size_of_h(name, q):
    """|H| read off the chain, as enumerate_orbits reads it, is the size of
    the closure of H; GL3/B has |H| = 8000 at q = 5, 74088 at 7."""
    obj = (bruhat_obj(3, q, {5: 2, 7: 3}[q]) if name == "bruhat_gl3"
           else json.loads(oracle_spec_text(name)))
    h_gens = spec_from_obj(obj, q).h_gens
    assert _chain_order(h_gens, q) == _h_size(h_gens, q)


_GL3_LENGTHS = (0, 1, 1, 2, 2, 3)  # l(w) for w in S_3


@pytest.mark.parametrize("obj,q", BRUHAT_CASES.values(), ids=BRUHAT_CASES)
def test_bruhat_orbit_sizes_are_powers_of_q(obj, q):
    spec = spec_from_obj(obj, q)
    sizes = sorted(o.size for o in enumerate_orbits(spec).orbits)
    assert sizes == sorted(q ** length for length in
                           ((0, 1) if spec.dimension == 2 else _GL3_LENGTHS))


def test_bruhat_gl3_at_q5_and_q7_matches_gen_flag_a2():
    """GL3/B with a primitive-root torus: six B-orbits of sizes q^l(w) at
    q = 5 and 7, and the inferred datum matches gen-flag A2.  Closing all
    of G, as the reference enumeration of tests/test_oracle_numpy.py does,
    takes 35 s and 0.9 GB at q = 5, so the conjugated spec there is checked
    against the plain one instead (and that file checks its labels against
    the lexsort over all of H)."""
    start = time.perf_counter()
    reports = []
    for q, root in ((5, 2), (7, 3)):
        reports.append(enumerate_orbits(spec_from_obj(bruhat_obj(3, q, root), q),
                                        cap=10**8))
        assert sorted(o.size for o in reports[-1].orbits) == [q**n for n in _GL3_LENGTHS]
    assert time.perf_counter() - start < 10  # scanning all of H per coset: 24-38 s
    inferred = infer_datum(reports, build_root_system("A2"))
    assert compare(generate_flag_datum(build_root_system("A2")), inferred.datum).match

    conj = enumerate_orbits(spec_from_obj(GL3_B_CONJUGATED_Q5, 5))
    plain, aligned = align_reports([reports[0], conj])
    assert (aligned.group_order, aligned.subgroup_order, aligned.point_count) == (
        plain.group_order, plain.subgroup_order, plain.point_count)
    assert [o.size for o in aligned.orbits] == [o.size for o in plain.orbits]


@st.composite
def _seeded_conjugate(draw):
    """A bundled spec conjugated by a random invertible g, pinned to q: its
    own prime, or any for a generic spec."""
    obj = json.loads(oracle_spec_text(draw(st.sampled_from(ORACLE_SPEC_NAMES))))
    qs = (5, 7, 11) if obj["q"] is None else (obj["q"],)
    g, q = draw(invertible(qs=qs, ks=(obj["dimension"],)))
    return conjugated(obj, g, q), q


@settings(max_examples=25, deadline=None)
@given(_seeded_conjugate())
def test_seeded_conjugates_load_as_the_reference_loader_does(case):
    obj, q = case
    assert spec_from_obj(obj, q) == reference_spec_from_obj(obj, q)


@settings(max_examples=25, deadline=None)
@given(_seeded_conjugate())
def test_chain_order_is_the_size_of_h_on_conjugates(case):
    obj, q = case
    h_gens = spec_from_obj(obj, q).h_gens
    assert _chain_order(h_gens, q) == _h_size(h_gens, q)


@settings(max_examples=200, deadline=None)
@given(invertible())
def test_inv_mod_is_inverse(case):
    mat, q = case
    inv, eye = mod_inverse(mat, q), mat_identity(len(mat))
    assert mod_mul(mat, inv, q) == eye
    assert mod_mul(inv, mat, q) == eye


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 7, 257, 65537]), st.integers(1, 6), st.randoms())
def test_unrolled_products_match_matmul(q, k, rnd):
    a, b = (tuple(tuple(rnd.randrange(q) for _ in range(k)) for _ in range(k))
            for _ in range(2))
    arith = _arith(k, q)
    flat_a, flat_b, flat_ab, eye = _flat([a, b, mod_mul(a, b, q), mat_identity(k)])
    assert arith.mul(flat_a, flat_b) == flat_ab
    assert arith.vmul(flat_a[:k], flat_b) == flat_ab[:k]
    assert arith.eye == eye


@settings(max_examples=200, deadline=None)
@given(canon_cases())
def test_adjoined_generators_and_both_chains_agree_with_the_closure_of_h(case):
    """H's chain, its generators adjoined one at a time, has the order of
    H's BFS closure; a label chain given |H| and one that reads |H| off
    H's chain give every matrix the same label.  That the label is the
    lex-minimum of the coset, tests/test_oracle_numpy.py checks."""
    h_gens, mats, q = case
    h_all = reference_closure(_flat(h_gens), q, 10**5)
    tops = chain_top(h_gens, q, len(h_all)), chain_top(h_gens, q)
    assert tops[1].order == len(h_all)
    for m in mats:  # one chain for all: later matrices reuse its orbits
        assert _canon(m, tops[0]) == _canon(m, tops[1])


@settings(max_examples=200, deadline=None)
@given(canon_cases())
def test_sifted_chain_matches_the_explicit_set_chain(case):
    """The label chain whose stabilizers come from Schreier–Sims sifting
    and the reference whose stabilizers are closed as sets of matrices
    read the same |H|, give every matrix the same label, and have the
    same stabilizer order under every orbit minimum both met."""
    h_gens, mats, q = case
    top, ref = chain_top(h_gens, q), reference_top(h_gens, q)
    for m in mats:
        assert _canon(m, top) == _canon(m, ref)
    pairs = [(top, ref)]
    seen = {(id(top), id(ref))}
    for a, b in pairs:  # below[mu] may be the level itself
        assert a.order == b.order
        for mu in a.below.keys() & b.below.keys():
            if (id(a.below[mu]), id(b.below[mu])) not in seen:
                seen.add((id(a.below[mu]), id(b.below[mu])))
                pairs.append((a.below[mu], b.below[mu]))


@pytest.mark.parametrize("block,message", [
    ("B", "B is not contained in the group generated by G"),
    ("P", "P_1 is not contained in the group generated by G"),
])
def test_generator_outside_g_refused(block, message):
    spec = spec_from_obj(outside_obj(block), 5)
    with pytest.raises(OracleError, match=f"^{message}$"):
        enumerate_orbits(spec)
    with pytest.raises(OracleError, match=f"^{message}$"):
        reference_enumerate_by_act(spec)


def _doubled(obj: dict) -> dict:
    """The spec with the first generator of every block listed twice."""
    gens = obj["generators"]
    return {**obj, "generators": {
        **{block: gens[block] + gens[block][:1] for block in ("G", "B", "H")},
        "P": {a: mats + mats[:1] for a, mats in gens.get("P", {}).items()}}}


#: Bundled specs at their primes; specs with a generator listed twice; and
#: GL_k/B, whose B generator diag(1, r, ...) is in G but not in G's list.
_PERMUTATION_CASES = {
    **{f"{name}-q{q}": (json.loads(oracle_spec_text(name)), q) for name, q in bundled_cases()},
    **{f"{name}-doubled": (_doubled(json.loads(oracle_spec_text(name))), 5)
       for name in ("torus", "horospherical")},
    "gl2-B-q5": (bruhat_obj(2, 5, 2), 5),
    "gl2-B-doubled-q7": (_doubled(bruhat_obj(2, 7, 3)), 7),
    "gl3-B-q3": (bruhat_obj(3, 3, 2), 3),
}


@pytest.mark.parametrize("obj,q", _PERMUTATION_CASES.values(), ids=_PERMUTATION_CASES)
def test_point_permutations_match_act(obj, q):
    spec = spec_from_obj(obj, q)
    assert enumerate_orbits(spec) == reference_enumerate_by_act(spec)


@settings(max_examples=15, deadline=None)
@given(_seeded_conjugate())
def test_point_permutations_match_act_on_conjugates(case):
    obj, q = case
    spec = spec_from_obj(obj, q)
    assert enumerate_orbits(spec) == reference_enumerate_by_act(spec)


def test_each_generator_is_inverted_once():
    """The loader inverts every generator to refuse a singular one, and
    enumeration reads the same inverses: one elimination per matrix."""
    _inv_mod.cache_clear()
    spec = spec_from_obj(json.loads(oracle_spec_text("torus_normalizer")), 5)
    mats = {m for block in (spec.g_gens, spec.b_gens, spec.h_gens,
                            *spec.parabolics.values()) for m in block}
    assert _inv_mod.cache_info().misses == len(mats)
    enumerate_orbits(spec)
    assert _inv_mod.cache_info().misses == len(mats)
    assert _inv_mod.cache_info().hits >= len(spec.g_gens) + len(spec.h_gens)


def test_dimension_limit(tmp_path, capsys):
    """A spec of dimension MAX_DIMENSION = 16 runs in the library and on
    the CLI; 17 is refused in both by test_malformed_spec_is_refused_..."""
    eye = [[int(i == j) for j in range(16)] for i in range(16)]
    obj = {"name": "eye16", "root_system": "A1", "q": None, "dimension": 16,
           "generators": {"G": [eye], "B": [eye], "H": [eye]}}
    assert oracle.MAX_DIMENSION == 16
    assert enumerate_orbits(spec_from_obj(obj, 5)).orbits == (
        OrbitInfo(representative=_fmt_matrix(sum(eye, []), 16), size=1),)
    spec = tmp_path / "eye16.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["oracle", "enumerate", str(spec), "--q-list", "5"]) == 0
    assert "1 points, 1 B-orbits" in capsys.readouterr().out


def test_cap_messages_name_cap_and_value():
    spec = spec_from_obj(json.loads(oracle_spec_text("torus")), 5)  # |G| = 480, |H| = 16
    assert enumerate_orbits(spec, cap=480).group_order == 480
    with pytest.raises(OracleError) as err:
        enumerate_orbits(spec, cap=479)
    assert str(err.value) == "G exceeds cap 479: points x |H| reached 480"
    # the chain's top: the orbit of row (1, 0) has 4 points, its stabilizer
    # diag(1, t) 4 elements, so |H| = 16 is known before any coset; at
    # cap 16 it is the BFS's second point that is refused
    with pytest.raises(OracleError) as err:
        enumerate_orbits(spec, cap=16)
    assert str(err.value) == "G exceeds cap 16: points x |H| reached 32"
    for cap in (15, 10, 4):
        with pytest.raises(OracleError) as err:
            enumerate_orbits(spec, cap=cap)
        assert str(err.value) == f"H exceeds cap {cap}: |H| = 16"
    with pytest.raises(OracleError) as err:  # the cap bounds |H|, not the chain's work
        enumerate_orbits(spec, cap=3)
    assert str(err.value) == "H exceeds cap 3: |H| = 16"
    upper = [[1, 1], [0, 1]]  # G = H = B, of order 5: the H cap is met exactly
    spec = spec_from_obj({"name": "u", "root_system": "A1", "q": None, "dimension": 2,
                          "generators": {"G": [upper], "B": [upper], "H": [upper]}}, 5)
    assert enumerate_orbits(spec, cap=5).subgroup_order == 5
    with pytest.raises(OracleError) as err:
        enumerate_orbits(spec, cap=4)
    assert str(err.value) == "H exceeds cap 4: |H| = 5"


def test_parabolic_class_not_union_of_b_orbits_refused():
    obj = json.loads(oracle_spec_text("torus"))
    obj["generators"]["P"] = {"1": obj["generators"]["H"][:1]}  # a torus, not a parabolic
    with pytest.raises(OracleError, match="^P_1 class is not a union of B-orbits$"):
        enumerate_orbits(spec_from_obj(obj, 5))


def test_schreier_generator_outside_h_is_named(monkeypatch):
    """A Schreier generator lies in H only if coset labels are right; with
    a canonicalisation that sends every coset to H itself, the generators
    close all of G (order 480, not |H| = 16), so the certificate refuses."""
    monkeypatch.setattr(oracle, "_canon", lambda m, level: level.arith.eye)
    with pytest.raises(OracleError) as err:
        enumerate_orbits(spec_from_obj(json.loads(oracle_spec_text("torus")), 5))
    assert str(err.value) == "H is not contained in the group generated by G"


@st.composite
def _certificate_specs(draw):
    """A spec with k <= 3 at q in {3, 5}, conjugated by a random g: G is
    GL_k, SL_k, the upper triangular B, its unipotent radical U or the
    diagonal torus T (GL_3 and SL_3 at q = 3 only); H is generated by one
    to three matrices, each a G generator, a product of two, or a
    diagonal, lower unipotent or permutation matrix that G may not hold,
    such as a diagonal of determinant 2 with G = SL_k."""
    q, k = draw(st.sampled_from([3, 5])), draw(st.integers(1, 3))
    upper = [elementary(k, i, i + 1) for i in range(k - 1)]
    lower = [elementary(k, i + 1, i) for i in range(k - 1)]
    torus = [diagonal(k, i, 2) for i in range(k)]  # 2 is a primitive root mod 3 and 5
    groups = {"GL": upper + lower + torus[:1], "SL": upper + lower, "B": torus + upper,
              "U": upper, "T": torus}
    kind = draw(st.sampled_from(sorted(groups) if k < 3 or q == 3 else ["B", "T", "U"]))
    g_gens = groups[kind] or [diagonal(k, 0, 1)]
    perm = draw(st.permutations(range(k)))
    outside = [diagonal(k, draw(st.integers(0, k - 1)), draw(st.integers(2, q - 1))),
               tuple(tuple(int(perm[r] == c) for c in range(k)) for r in range(k)), *lower]
    h_gens = [draw(st.one_of(st.sampled_from(g_gens), st.sampled_from(outside),
                             st.builds(lambda a, b: mod_mul(a, b, q), st.sampled_from(g_gens),
                                       st.sampled_from(g_gens))))
              for _ in range(draw(st.integers(1, 3)))]
    b_gens = draw(st.lists(st.sampled_from(g_gens), min_size=1, max_size=2))
    obj = {"name": f"{kind}{k}", "root_system": "A1", "q": q, "dimension": k,
           "generators": {"G": g_gens, "B": b_gens, "H": h_gens,
                          "P": {"1": g_gens} if draw(st.booleans()) else {}}}
    g, _ = draw(invertible(qs=(q,), ks=(k,)))
    return conjugated(obj, g, q), q


@settings(max_examples=60, deadline=None)
@given(_certificate_specs())
def test_certificate_matches_the_set_closure_of_g_cap_h(case):
    """G ∩ H grown on a chain refuses H exactly where the closure of the
    Schreier generators as one set did, and the report is the same."""
    obj, q = case
    spec = spec_from_obj(obj, q)
    expected = _outcome(reference_certified_enumeration, spec)
    # an H the set closure cannot hold (GL3 at q = 5 has 1,488,000
    # elements) is past what the reference decides
    assume(not str(expected).startswith("H closure exceeds cap"))
    assert _outcome(enumerate_orbits, spec) == expected


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


def _outcome(run, arg):
    """run(arg), or the text of the OracleError it raises."""
    try:
        return run(arg)
    except OracleError as exc:
        return str(exc)


_PRIMES = (2, 3, 5, 7, 11, 13, 23)


@st.composite
def _fit_points(draw):
    """Sizes at two or three primes, primes repeating: half the time a
    monomial c q^a (q-1)^b sampled at each, else with some sizes arbitrary."""
    qs = draw(st.lists(st.sampled_from(_PRIMES), min_size=2, max_size=3))
    a, b = draw(st.integers(0, 25)), draw(st.integers(0, 25))
    num, den = draw(st.integers(-2, 12)), draw(st.sampled_from((1, 1, 2, 3)))
    monomial = draw(st.booleans())
    points = []
    for q in qs:
        exact = num * q**a * (q - 1) ** b
        size = exact // den if exact % den == 0 else exact
        if not monomial:
            size = draw(st.one_of(st.just(size), st.integers(-3, 10**6)))
        points.append((q, size))
    return points


@settings(max_examples=300, deadline=None)
@given(_fit_points())
def test_fit_monomial_matches_the_fraction_search(points):
    assert _outcome(fit_monomial, points) == _outcome(reference_fit_monomial, points)


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


def _tiny_report(q: int, sizes: tuple[int, ...], merges=None,
                 root_system: str = "A1") -> OracleReport:
    """A synthetic run; by default one P_1 class holds every orbit."""
    return OracleReport(
        spec_name="fake", root_system=root_system, q=q, group_order=1,
        subgroup_order=1, point_count=sum(sizes),
        orbits=tuple(OrbitInfo(representative=f"r{i}", size=s)
                     for i, s in enumerate(sizes)),
        merges=merges or {1: (tuple(range(len(sizes))),)})


def _infer_synthetic(sizes, merges=None, root_system: str = "A1"):
    """infer_datum on synthetic runs at q = 5 and 7, sizes(q) giving the
    orbit sizes; a size c q^a (q-1)^b fits to dim a + b and rk b."""
    return infer_datum([_tiny_report(q, sizes(q), merges, root_system) for q in (5, 7)],
                       build_root_system(root_system))


@pytest.mark.parametrize("sizes,kind", [
    (lambda q: (q * q,), "A"),
    # equal ranks: U; ranks one apart: RI, flagged as RI|N
    (lambda q: (q, q * q), "U"),
    (lambda q: (q, q * (q - 1)), "RI"),
    # equal lower dims: RT; dims 2 > 1 > 0: TU
    (lambda q: (q, q, q * (q - 1)), "RT"),
    (lambda q: (1, q, q * (q - 1)), "TU"),
], ids=["A", "U", "RI", "RT", "TU"])
def test_infer_picks_each_kind_by_shape(sizes, kind):
    inf = _infer_synthetic(sizes)
    n = len(sizes(5))
    assert [c.kind for c in inf.datum.cells[1]] == [kind]
    assert inf.datum.cells[1][0].members == tuple(f"o{i + 1}" for i in range(n))
    assert validate(inf.datum).ok
    assert any("RI|N" in note for note in inf.notes) == (kind == "RI")


_FAILS = "inferred datum fails validation: "


@pytest.mark.parametrize("sizes,merges,root_system,message", [
    (lambda q: (q, q), {1: ((0,), (1,))}, "A1",
     _FAILS + "VIOLATION open-orbit at datum: expected exactly one open orbit, found 2"),
    (lambda q: (q, q, q * q), {1: ((0, 1), (2,))}, "A1",
     _FAILS + "VIOLATION cell-y-not-max at alpha 1 cell y=o2: o3 has dim 1 >= y dim 1; "
     "VIOLATION cell-U-dim at alpha 1 cell y=o2: dim(y)=1 != dim(z)+n_alpha=1+1"),
    (lambda q: (q, q * (q - 1) ** 2), None, "A1",
     _FAILS + "VIOLATION cell-RI-rank at alpha 1 cell y=o1: rk(z)=0 != rk(y)-1=1"),
    (lambda q: (q, q * q, q * q, q ** 3), {1: ((0, 1, 2), (3,))}, "A1",
     _FAILS + "VIOLATION cell-y-not-max at alpha 1 cell y=o2: o3 has dim 2 >= y dim 2; "
     "VIOLATION cell-TU-rank at alpha 1 cell y=o2: rk(z1)=0, rk(z2)=0, "
     "expected rk(y)-1=-1; "
     "VIOLATION cell-TU-dim at alpha 1 cell y=o2: need dim(y) > dim(z1) > dim(z2), "
     "got 2, 2, 1"),
    # valid cells whose sigma_1 sigma_2 is a 3-cycle, while A1xA1 has m = 2
    (lambda q: (q, q, q * q), {1: ((0, 2), (1,)), 2: ((0,), (1, 2))}, "A1xA1",
     _FAILS + "VIOLATION braid-relation at alpha 1, beta 2: "
     "(sigma_1 sigma_2)^2 moves orbit o2"),
    (lambda q: (1, q, q * q, q ** 3), None, "A1",
     "P_1 class with 4 B-orbits is out of scope"),
], ids=["top-dim-tie", "equal-dims-pair", "rank-gap-2", "y-ties-z1", "braid", "four-orbits"])
def test_infer_refuses_each_bad_shape(sizes, merges, root_system, message):
    with pytest.raises(OracleError) as exc:
        _infer_synthetic(sizes, merges, root_system)
    assert str(exc.value) == message


def test_infer_without_a_size_fit_prints_no_datum():
    """An orbit whose sizes fit no c q^a (q-1)^b is refused, each such
    orbit named with its sizes, so no datum is ever printed (the CLI's
    exit 2 on a real spec: tests/test_cli.py).  Sizes (7, 5) at q = 5 and
    (5, 7) at q = 7 in one class align by swapping the two orbits, each
    then of constant size, and validate refuses what that gives; sizes
    that no pairing fits align by merge structure alone."""
    with pytest.raises(OracleError) as exc:
        _infer_synthetic(lambda q: (12 - q, q, q * q), {1: ((0, 1), (2,))})
    assert str(exc.value) == (
        _FAILS + "VIOLATION cell-y-not-max at alpha 1 cell y=o3: o2 has dim 0 >= y dim 0; "
        "VIOLATION cell-U-dim at alpha 1 cell y=o3: dim(y)=0 != dim(z)+n_alpha=0+1")
    with pytest.raises(OracleError) as exc:
        _infer_synthetic(lambda q: (q + 1, q, q * q + 1))
    assert str(exc.value) == (
        "orbit 0 fits no size c * q^a * (q-1)^b: 6 at q = 5, 8 at q = 7; "
        "orbit 2 fits no size c * q^a * (q-1)^b: 26 at q = 5, 50 at q = 7")


def test_infer_rejects_small_characteristic():
    reports = [_tiny_report(3, (3, 6)), _tiny_report(5, (5, 20))]
    with pytest.raises(OracleError, match="q = 3 rejected"):
        infer_datum(reports, build_root_system("A1"))


def test_infer_refuses_unstable_counts():
    reports = [_tiny_report(5, (5, 20)), _tiny_report(7, (7, 21, 21))]
    with pytest.raises(OracleError, match="not polynomial-stable"):
        infer_datum(reports, build_root_system("A1"))


def test_infer_refuses_reports_of_two_root_systems():
    reports = [_tiny_report(5, (5, 20)), _tiny_report(7, (7, 42), root_system="BC1")]
    with pytest.raises(OracleError, match=r"disagree on root system: \['A1', 'BC1'\]"):
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


def _write_spec(tmp_path, name: str, q, dimension: int, g, b, h, p) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "root_system": "A1", "q": q,
                                "dimension": dimension,
                                "generators": {"G": g, "B": b, "H": h, "P": {"1": p}}}),
                    encoding="utf-8")
    return str(path)


def _sl3_on_p2(tmp_path) -> list[str]:
    """SL3 on P^2, pinned to q = 5 and 7, declared as A1 with P_1 = G: B
    is upper triangular with torus diag(t, 1/t, 1), diag(1, t, 1/t), and H
    adds E32, so the B-orbits have sizes 1, q, q^2 in one P_1 class."""
    paths = []
    for q, t in ((5, 2), (7, 3)):
        ti = pow(t, -1, q)
        g = [elementary(3, i, j) for i in range(3) for j in range(3) if i != j]
        b = [elementary(3, 0, 1), elementary(3, 0, 2), elementary(3, 1, 2),
             [[t, 0, 0], [0, ti, 0], [0, 0, 1]], [[1, 0, 0], [0, t, 0], [0, 0, ti]]]
        paths.append(_write_spec(tmp_path, f"sl3_p2_q{q}", q, 3, g, b,
                                 b + [elementary(3, 2, 1)], g))
    return paths


SL3_ON_P2_REFUSAL = ("error: inferred datum fails validation: VIOLATION cell-TU-rank "
                     "at alpha 1 cell y=o1: rk(z1)=0, rk(z2)=0, expected rk(y)-1=-1\n")


def test_sl3_on_p2_as_a1_is_refused_by_infer_and_compare(tmp_path, capsys):
    """Three B-orbits of ranks 0 in one class read as TU, whose z ranks
    must be rk(y) - 1: the candidate breaks cell-TU-rank, and both modes
    refuse it with exit 2 instead of printing it."""
    paths = _sl3_on_p2(tmp_path)
    assert main(["oracle", "infer", *paths]) == 2
    assert tuple(capsys.readouterr()) == ("", SL3_ON_P2_REFUSAL)
    assert main(["oracle", "compare", *paths, "rank1_tu"]) == 2
    assert tuple(capsys.readouterr()) == ("", SL3_ON_P2_REFUSAL)


def test_spec_without_a_parabolic_is_refused(tmp_path, capsys):
    """product_diag with P_2 left out: no alpha-2 cell covers an orbit."""
    paths = []
    for q in (5, 7):
        obj = json.loads(oracle_spec_text(f"product_diag_q{q}"))
        del obj["generators"]["P"]["2"]
        paths.append(tmp_path / f"p1_only_q{q}.json")
        paths[-1].write_text(json.dumps(obj), encoding="utf-8")
    assert main(["oracle", "infer", *map(str, paths)]) == 2
    assert tuple(capsys.readouterr()) == ("", (
        "error: inferred datum fails validation: VIOLATION partition-defect "
        "at alpha 2: orbits not covered: o1, o2\n"))


def test_gl2_over_sl2_mismatches_rank1_a_in_invariants(tmp_path, capsys):
    """GL2/SL2 is the line of determinants: one B-orbit of size q - 1, an
    A cell as in rank1_a, but of dim 1 and rank 1."""
    g = [diagonal(2, 0, 3), diagonal(2, 1, 3), elementary(2, 0, 1), elementary(2, 1, 0)]
    path = _write_spec(tmp_path, "gl2_sl2", None, 2, g, g[:3], g[2:], g)
    assert main(["oracle", "infer", path]) == 0
    assert json.loads(capsys.readouterr().out)["datum"]["cells"] == {
        "1": [{"kind": "A", "y": "o1"}]}
    assert main(["oracle", "compare", path, "rank1_a"]) == 1
    assert capsys.readouterr().out == (
        "invariant mismatch: dim(y) = 2 vs dim(o1) = 1\n"
        "invariant mismatch: rk(y) = 0 vs rk(o1) = 1\n"
        "invariant mismatch: s(y) = 1 vs s(o1) = 0\n")


def _sym2(g) -> list[list[int]]:
    """Sym^2 of a 2x2 matrix: its action on the quadratic forms x^2, xy, y^2."""
    (a, b), (c, d) = g
    return [[a * a, a * b, b * b], [2 * a * c, a * d + b * c, 2 * b * d],
            [c * c, c * d, d * d]]


def test_gl3_over_go3_aligns_orbits_by_size_fits(tmp_path, capsys, monkeypatch):
    """GL3 ⊃ GO3 at q = 5 and 7: H is Sym^2 of GL2's generators with the
    scalars r·I3, so |H| = 480 and 2016, with 3100 and 16758 points in 7
    B-orbits.  Six orbits of size 500 = 4 q^3 at q = 5 have sizes 2058 =
    q^3 (q-1) or 3087 = q^3 (q-1)^2 / 4 at q = 7: equal sizes at one
    prime are unequal at the other, so orbits are paired by sizes that
    admit one monomial.  enumerate prints every row, and infer gets as
    far as validate, which refuses four open orbits."""
    paths = []
    for q, root in ((5, 2), (7, 3)):
        obj = {**bruhat_obj(3, q, root), "name": "gl3_go3"}
        obj["generators"]["H"] = [
            *(_sym2(m) for m in (elementary(2, 0, 1), elementary(2, 1, 0), diagonal(2, 0, root))),
            [[root * (i == j) for j in range(3)] for i in range(3)]]
        path = tmp_path / f"gl3_go3_q{q}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths.append(str(path))
    args = [*paths, "--q-list", "5,7", "--cap", "100000000"]
    runs, enumerate_ = {}, oracle.enumerate_orbits

    def enumerate_once(spec, cap):  # infer reuses enumerate's runs
        if spec.q not in runs:
            runs[spec.q] = enumerate_(spec, cap)
        return runs[spec.q]

    monkeypatch.setattr(oracle, "enumerate_orbits", enumerate_once)
    assert main(["oracle", "enumerate", *args]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "|H| = 480, 3100 points, 7 B-orbits" in out
    assert "|H| = 2016, 16758 points, 7 B-orbits" in out
    assert Counter(line.split(": ", 1)[1] for line in out.splitlines()
                   if line.startswith("pointCounts")) == {
        "q=5: 100, q=7: 294": 1, "q=5: 500, q=7: 2058": 2, "q=5: 500, q=7: 3087": 4}
    assert main(["oracle", "infer", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + _FAILS + "VIOLATION open-orbit at datum: "
                          "expected exactly one open orbit, found 4; ")


def reference_signature(d: OrbitDatum, oid: str) -> tuple:
    """Per alpha, the kind class and role of oid's one alpha-cell, by one
    membership probe per orbit and alpha: point counts cannot tell RI from
    N, nor RT's z1 from its z2."""
    sig = []
    for alpha in sorted(d.cells):
        cell, role = reference_membership(d)[alpha, oid]
        sig.append((alpha, ("RI|N" if cell.kind in ("RI", "N") else cell.kind,
                            "z" if cell.kind == "RT" and role != "y" else role)))
    return tuple(sig)


@pytest.mark.parametrize(
    "d", [bundled_datum(n) for n in ("rank1_tu", "rank1_rt", "rank1_ri", "sl3_so12",
                                     "product_a1a1")]
    + [generate_flag_datum(build_root_system("A2"))] + DEFECTIVE_CASES,
    ids=lambda d: d.root_system.to_text())
def test_compare_colours_match_reference_signatures(d):
    """The colours of compare, or, where the cells do not partition the
    orbits, the refusal of the orbit that reference_membership names."""
    try:
        want = [(reference_signature(d, o.id), o.open) for o in d.orbits]
    except DatumFormatError as exc:
        with pytest.raises(DatumFormatError, match=f"^{re.escape(str(exc))}$"):
            oracle._structure(d)
    else:
        assert oracle._structure(d)[0] == want


def _relabelled(d: OrbitDatum, seed: int) -> OrbitDatum:
    ids = list(d.orbit_ids())
    fresh = [f"x{i}" for i in range(len(ids))]
    random.Random(seed).shuffle(fresh)
    new = dict(zip(ids, fresh))
    cells = {alpha: tuple(RaiseCell(c.kind, tuple(map(new.get, c.members))) for c in cs)
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
    swapped[2] = (RaiseCell("U", first.members[::-1]), *rest)
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
    merges = {alpha: tuple(sorted(tuple(sorted(map(at.get, c.members))) for c in cs))
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


def test_align_reports_counts_an_ambiguous_fit_as_a_fit():
    """Two runs at one prime: every monomial fits a size against itself,
    and that ambiguous fit pairs the orbits by size, where the merge
    structure alone would keep the order in which they came."""
    base, rep = _tiny_report(5, (5, 25)), _tiny_report(5, (25, 5))
    assert [o.size for o in align_reports([base, rep])[1].orbits] == [5, 25]


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


def test_matcher_refuses_colour_multisets_that_differ():
    # equal sizes and no blocks: only the colour counts tell the sides apart
    assert _match((0, 1), [], (1, 1), []) is None
    assert _match((0, 1), [], (1, 0), []) == [1, 0]


@settings(max_examples=150, deadline=None)
@given(_structures())
def test_matcher_agrees_with_brute_force(structure):
    ca, ba, cb, bb = structure
    found = _match(ca, ba, cb, bb)
    assert _match(ca, ba, cb, bb, lambda v, w: ca[v] == cb[w]) == found
    expected = _brute_force_match(ca, ba, cb, bb)
    assert (found is None) == (expected is None)
    if found is not None:
        assert sorted(found) == list(range(len(ca)))
        assert all(cb[found[v]] == c for v, c in enumerate(ca))
        targets = {_image(range(len(cb)), b) for b in bb}
        assert all(_image(found, b) in targets for b in ba)
