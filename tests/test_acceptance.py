"""Acceptance gate: every criterion the package commits to, run exactly.

All checks are exact integer or F2 assertions; there are no tolerances
anywhere.  Each numbered block below is self-contained: flag data over
the small systems, the six bundled rank-1 kinds, the four-orbit worked
example, the finite-field oracle at q = 5 and 7, the generator theorem,
a seeded mutation sweep, cross-module consistency, and byte-identical
CLI determinism.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from weylorb.action import braid_check, check_generator_theorem, stabilizer_open
from weylorb.bundled import DATUM_NAMES, bundled_datum, datum_text, oracle_spec_text
from weylorb.cli import main
from weylorb.coxeter import (
    build_root_system,
    enumerate_group,
    subgroup_closure,
    weyl_group,
)
from weylorb.datum import (
    check_lattices,
    datum_from_obj,
    datum_to_obj,
    generate_flag_datum,
    validate,
)
from weylorb.hecke import (
    apply,
    braid_check_module,
    build_module,
    leading_term,
    verify_regular_representation,
)
from weylorb.oracle import (
    OracleReport,
    compare,
    enumerate_orbits,
    infer_datum,
    spec_from_obj,
)

FLAG_SUITE = [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("BC2", 8),
              ("G2", 12), ("A1xA1", 4)]

_ORACLE_CACHE: dict[tuple[str, int], tuple[OracleReport, float]] = {}


def oracle_run(name: str, q: int) -> OracleReport:
    key = (name, q)
    if key not in _ORACLE_CACHE:
        t0 = time.monotonic()
        rep = enumerate_orbits(spec_from_obj(json.loads(oracle_spec_text(name)), q))
        _ORACLE_CACHE[key] = (rep, time.monotonic() - t0)
    return _ORACLE_CACHE[key][0]


# 1. Flag-datum suite ------------------------------------------------------

def test_1_flag_suite():
    t0 = time.monotonic()
    for token, order in FLAG_SUITE:
        rs = build_root_system(token)
        group = enumerate_group(rs)
        assert len(group) == order, token
        refl = group[1:rs.rank + 1]  # s_0, ..., s_{r-1} follow the identity
        assert len(subgroup_closure(refl)) == order, token

        d = generate_flag_datum(rs)
        assert len(d.orbits) == order, token
        assert validate(d).ok, token
        assert check_lattices(d).ok, token
        assert braid_check(d) == [], token

        stab = stabilizer_open(d)
        assert stab.order == 1, token

        report = verify_regular_representation(build_module(d))
        assert report.ok, token
        assert report.group_order == order, token
        assert report.span_dimension == order, token
    assert time.monotonic() - t0 < 5.0


# 2. Rank-1 kind suite -----------------------------------------------------

def test_2_rank1_suite():
    t0 = time.monotonic()
    for name in ("rank1_u", "rank1_tu", "rank1_a", "rank1_rt", "rank1_ri",
                 "rank1_n"):
        d = bundled_datum(name)
        assert validate(d).ok, name
        assert check_lattices(d).ok, name
        m = build_module(d)
        for oid in m.basis:
            v = m.unit(oid)
            assert apply(m, 1, apply(m, 1, v)) == v, name
            assert leading_term(m, 1, oid) == d.sigma(1, oid), name

    u = bundled_datum("rank1_u")
    assert u.sigma(1, "y") == "z"
    assert u.sigma(1, "z") == "y"
    tu = bundled_datum("rank1_tu")
    assert tu.sigma(1, "y") == "y"
    assert tu.sigma(1, "z1") == "z2"
    assert tu.sigma(1, "z2") == "z1"
    a = bundled_datum("rank1_a")
    assert a.sigma(1, "y") == "y"
    rt = bundled_datum("rank1_rt")
    assert rt.sigma(1, "y") == "y"
    assert rt.sigma(1, "z1") == "z2"
    assert rt.sigma(1, "z2") == "z1"
    ri = bundled_datum("rank1_ri")
    assert ri.sigma(1, "y") == "y"
    assert ri.sigma(1, "z") == "z"
    n = bundled_datum("rank1_n")
    assert n.sigma(1, "y") == "y"
    assert n.sigma(1, "z") == "z"
    assert time.monotonic() - t0 < 1.0


# 3. Four-orbit worked example ---------------------------------------------

def test_3_four_orbit_example():
    d = bundled_datum("sl3_so12")
    assert len(d.orbits) == 4
    assert d.root_system.key == build_root_system("A2").key
    assert validate(d).ok
    assert braid_check(d) == []
    # the cell kinds are modeled, not computed; the file must say so
    obj = json.loads(datum_text("sl3_so12"))
    assert any("chosen" in note for note in obj["notes"])


# 4. Oracle suite ----------------------------------------------------------

ORACLE_COUNTS = {
    "torus": 3,
    "torus_normalizer": 2,
    "horospherical": 2,
    "product_diag_q5": 2,
    "product_diag_q7": 2,
}


def test_4_oracle_counts_and_sums():
    runs = [("torus", 5), ("torus", 7),
            ("torus_normalizer", 5), ("torus_normalizer", 7),
            ("horospherical", 5), ("horospherical", 7),
            ("product_diag_q5", 5), ("product_diag_q7", 7)]
    for name, q in runs:
        rep = oracle_run(name, q)
        assert rep.orbit_count == ORACLE_COUNTS[name], (name, q)
        assert sum(o.size for o in rep.orbits) == \
            rep.group_order // rep.subgroup_order, (name, q)
        assert _ORACLE_CACHE[(name, q)][1] < 30.0, (name, q)


def test_4_infer_torus_rt_matches_bundled():
    inferred = infer_datum([oracle_run("torus", 5), oracle_run("torus", 7)],
                           build_root_system("A1"))
    kinds = [c.kind for c in inferred.datum.cells[1]]
    assert kinds == ["RT"]
    result = compare(bundled_datum("rank1_rt"), inferred.datum)
    assert result.match
    assert result.lines == ()


def test_4_infer_horospherical_u():
    inferred = infer_datum([oracle_run("horospherical", 5),
                            oracle_run("horospherical", 7)],
                           build_root_system("A1"))
    assert [c.kind for c in inferred.datum.cells[1]] == ["U"]


def test_4_product_orbits_merge_under_both_roots():
    rep = oracle_run("product_diag_q5", 5)
    assert rep.merges == {1: ((0, 1),), 2: ((0, 1),)}


# 5. Generator theorem -----------------------------------------------------

def test_5_generator_theorem_on_bundled():
    nontrivial = []
    for name in DATUM_NAMES:
        d = bundled_datum(name)
        stab = stabilizer_open(d)
        if stab.order == 1:
            continue
        nontrivial.append(name)
        assert check_generator_theorem(d).holds, name
    assert "product_a1a1" in nontrivial
    assert len(nontrivial) >= 6


def test_5_product_generating_set_is_the_pair():
    d = bundled_datum("product_a1a1")
    rs = d.root_system
    result = check_generator_theorem(d)
    assert result.holds
    assert len(result.generating_set) == 1
    group = enumerate_group(rs)
    pair = group[1] * group[2]  # s_0 s_1
    assert result.generating_set[0] == weyl_group(rs).words[pair.id]
    assert not rs.is_root((1, 1))  # alpha_1 + alpha_2


# 6. Mutation sweep --------------------------------------------------------

KIND_FLIPS = {
    "U": ("RI", "N"),
    "RI": ("U",),
    "N": ("U",),
    "TU": ("RT",),
    "RT": ("TU",),
}


def _mutation_pool():
    objs = [json.loads(datum_text(name)) for name in DATUM_NAMES]
    for token in ("A2", "B2", "A1xA1"):
        objs.append(datum_to_obj(generate_flag_datum(build_root_system(token))))
    return objs


def _non_a_cells(obj):
    out = []
    for alpha, cells in obj["cells"].items():
        for i, cell in enumerate(cells):
            if cell["kind"] != "A":
                out.append((alpha, i))
    return out


def _mutate(obj, rng: random.Random) -> tuple[dict, str] | None:
    obj = json.loads(json.dumps(obj))
    targets = _non_a_cells(obj)
    if not targets:
        return None
    op = rng.choice(("rank-bump", "dim-swap", "kind-flip"))
    alpha, i = rng.choice(targets)
    cell = obj["cells"][alpha][i]
    by_id = {o["id"]: o for o in obj["orbits"]}
    if op == "rank-bump":
        member = rng.choice([cell[k] for k in ("y", "z", "z1", "z2") if k in cell])
        by_id[member]["rk"] += 1
    elif op == "dim-swap":
        zkey = "z" if "z" in cell else "z1"
        y, z = by_id[cell["y"]], by_id[cell[zkey]]
        y["dim"], z["dim"] = z["dim"], y["dim"]
    else:
        cell["kind"] = rng.choice(KIND_FLIPS[cell["kind"]])
    return obj, op


def test_6_mutations_never_slip_through():
    rng = random.Random(20260823)
    pool = _mutation_pool()
    caught = 0
    ops_seen = set()
    while caught < 100:
        mutated = _mutate(rng.choice(pool), rng)
        if mutated is None:
            continue
        obj, op = mutated
        d = datum_from_obj(obj)
        detected = not validate(d).ok or braid_check(d) != []
        assert detected, f"silent acceptance of {op} mutation: {json.dumps(obj)}"
        ops_seen.add(op)
        caught += 1
    assert ops_seen == {"rank-bump", "dim-swap", "kind-flip"}


# 7. Cross-module consistency ----------------------------------------------

def test_7_leading_term_is_sigma_everywhere():
    data = [bundled_datum(name) for name in DATUM_NAMES]
    data.extend(generate_flag_datum(build_root_system(t))
                for t, _ in FLAG_SUITE)
    for d in data:
        m = build_module(d)
        for alpha in m.columns:
            for oid in m.basis:
                assert leading_term(m, alpha, oid) == d.sigma(alpha, oid)


def test_7_module_braid_implies_action_braid():
    for name in DATUM_NAMES:
        d = bundled_datum(name)
        module_violations = braid_check_module(build_module(d))
        action_violations = braid_check(d)
        if not module_violations:
            assert action_violations == [], name
        assert module_violations == [] and action_violations == [], name


# 8. CLI determinism -------------------------------------------------------

DETERMINISM_COMMANDS = [
    ["gen-flag", "G2"],
    ["gen-flag", "A", "3"],
    ["gen-flag", "BC2", "--raise-dims", "2,1"],
    ["validate", "sl3_so12", "--json"],
    ["act", "sl3_so12", "1.2.1", "x"],
    ["braid", "product_a1a1"],
    ["stabilizer", "rank1_tu", "--json"],
    ["hecke", "sl3_so12", "--json"],
    ["export-dot", "product_a1a1"],
    ["oracle", "enumerate", "torus", "--json"],
    ["oracle", "infer", "horospherical"],
    ["oracle", "compare", "torus", "rank1_rt"],
]


@pytest.mark.parametrize("argv", DETERMINISM_COMMANDS,
                         ids=lambda a: "-".join(a[:2]))
def test_8_cli_byte_identical(argv, capsys):
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2
    assert out1 == out2
    assert out1
