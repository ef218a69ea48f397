"""Command-line interface: exit codes, output shapes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import weylorb
from weylorb import coxeter
from weylorb.bundled import DATUM_NAMES, bundled_datum, datum_text, oracle_spec_text
from weylorb.cli import build_parser, main
from weylorb.coxeter import build_root_system
from weylorb.datum import (
    OrbitDatum,
    dumps,
    export_dot,
    generate_flag_datum,
    loads,
)

import golden_cli


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    if "--json" in argv and "--out" not in argv:
        assert_json_contract(code, captured.out, captured.err)
    return code, captured.out, captured.err


def assert_json_contract(code: int, out: str, err: str) -> None:
    """Under --json, exit 0 or 1 prints one JSON object; exit 2 prints
    nothing and one error: line on stderr."""
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code in (0, 1) and isinstance(json.loads(out), dict), (code, out)


def _orbit(oid: str, dim: int, is_open: bool = False) -> dict:
    return {"id": oid, "dim": dim, "c": 0, "rk": 0, "s": 0, "open": is_open}


#: A1xA1 data over orbits y (open) and z: no cell for alpha 2 at all, and
#: alpha-2 cells that leave z uncovered.
MISSING_ALPHA = {"root_system": {"family": "A1xA1", "rank": 2, "raise_dims": [1, 1]},
                 "orbits": [_orbit("y", 1, True), _orbit("z", 0)],
                 "cells": {"1": [{"kind": "U", "y": "y", "z": "z"}]}}
PARTLY_COVERED = {**MISSING_ALPHA, "cells": {**MISSING_ALPHA["cells"],
                                             "2": [{"kind": "A", "y": "y"}]}}
#: A1 with "1" and "01" both naming the one simple root.
REPEATED_KEY = {"root_system": {"family": "A1", "rank": 1, "raise_dims": [1]},
                "orbits": [_orbit("y", 1, True), _orbit("z", 0)],
                "cells": {"1": [{"kind": "U", "y": "y", "z": "y"}],
                          "01": [{"kind": "U", "y": "y", "z": "z"}]}}


def write_datum(tmp_path: Path, name: str, obj: dict) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_gen_flag_validate_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen-flag", "A", "2")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(out.encode())))
    code, out2, _ = run(capsys, "validate")
    assert code == 0
    assert out2 == "OK\n"


def test_gen_flag_round_trip_and_determinism(capsys):
    code, out1, _ = run(capsys, "gen-flag", "B", "2")
    code2, out2, _ = run(capsys, "gen-flag", "B", "2")
    assert code == code2 == 0
    assert out1 == out2
    d = loads(out1)
    assert len(d.orbits) == 8


def test_gen_flag_token_and_raise_dims(capsys):
    code, out, _ = run(capsys, "gen-flag", "A1xA1", "--raise-dims", "2,3")
    assert code == 0
    d = loads(out)
    assert d.open_orbit().dim == 5


@pytest.mark.parametrize("dims", ["", "x"])
def test_gen_flag_bad_raise_dims_is_refused(capsys, dims):
    code, out, err = run(capsys, "gen-flag", "A2", "--raise-dims", dims)
    assert (code, out, err) == (2, "", f"error: bad raise-dims {dims!r}\n")


def test_gen_flag_unequal_dims_on_conjugate_roots_are_refused(capsys):
    assert run(capsys, "gen-flag", "A2", "--raise-dims", "1,2") == (
        2, "", "error: raise dims must agree on Weyl-conjugate simple roots; "
               "conflict [1, 2] in the orbit of (0, 1)\n")


@pytest.mark.parametrize("argv,message", [
    (["A1xQ2"], "cannot parse root-system token 'Q2'"),
    (["A1xG23"], "G2 has rank 2, not 3"),
    (["A1xB"], "token 'B' is missing a rank"),
    (["A1xA1", "3"], "rank 3 does not match A1xA1 (rank 2)"),
])
def test_gen_flag_bad_product_token_is_refused(capsys, argv, message):
    assert run(capsys, "gen-flag", *argv) == (2, "", f"error: {message}\n")


def test_gen_flag_out_file(tmp_path, capsys):
    target = tmp_path / "flag.json"
    code, out, _ = run(capsys, "gen-flag", "A", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert loads(target.read_text(encoding="utf-8")).orbit_ids() == ("e", "1")


def test_validate_violations_exit_one(tmp_path, capsys):
    obj = json.loads(datum_text("rank1_u"))
    for orbit in obj["orbits"]:
        if orbit["id"] == "z":
            orbit["dim"] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "VIOLATION" in out


def test_validate_json_shape(capsys):
    code, out, _ = run(capsys, "validate", "rank1_rt", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["structure"]["violations"] == []
    assert obj["lattices"]["violations"] == []


def test_act_command(capsys, tmp_path):
    code, out, _ = run(capsys, "act", "sl3_so12", "2.1", "z")
    assert code == 0
    assert out == "y1\n"
    code, out, _ = run(capsys, "act", "sl3_so12", "e", "z")
    assert (code, out) == (0, "z\n")


def test_act_bad_word_is_usage_error(capsys):
    code, _, err = run(capsys, "act", "sl3_so12", "1.9", "z")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "act", "sl3_so12", "1", "nope")
    assert code == 2


def test_braid_ok_and_violation(tmp_path, capsys):
    code, out, _ = run(capsys, "braid", "product_a1a1")
    assert (code, out) == (0, "OK\n")
    obj = {
        "root_system": {"family": "A1xA1", "rank": 2, "raise_dims": [1, 1]},
        "orbits": [
            {"id": "p", "dim": 3, "c": 0, "rk": 0, "s": 0, "open": True},
            {"id": "q", "dim": 2, "c": 0, "rk": 0, "s": 0, "open": False},
            {"id": "r", "dim": 1, "c": 0, "rk": 0, "s": 0, "open": False},
        ],
        "cells": {
            "1": [{"kind": "U", "y": "p", "z": "q"}, {"kind": "A", "y": "r"}],
            "2": [{"kind": "U", "y": "q", "z": "r"}, {"kind": "A", "y": "p"}],
        },
    }
    bad = tmp_path / "braidbad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "braid", str(bad))
    assert code == 1
    assert "braid-relation" in out


def test_stabilizer_rank1_rt_frozen_output(capsys):
    code, out, _ = run(capsys, "stabilizer", "rank1_rt")
    assert code == 0
    assert out == ("stabilizer order 2\n"
                   "element 1\n"
                   "element e\n"
                   "generator theorem: holds\n"
                   "generating set: 1\n")


def test_stabilizer_json(capsys):
    code, out, _ = run(capsys, "stabilizer", "product_a1a1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 2
    assert obj["elements"] == ["1.2", "e"]
    assert obj["generator_theorem"] is True
    assert obj["generating_set"] == ["1.2"]


#: A2 whose sigma_1 and sigma_2 both swap the open orbit x and the point y:
#: it validates and braids, but the stabilizer {e, 1.2, 2.1} of x holds no
#: simple reflection, so the generator theorem fails.
SIGN = {"root_system": {"family": "A2", "rank": 2, "raise_dims": [1, 1]},
        "orbits": [_orbit("x", 1, True), _orbit("y", 0)],
        "cells": {a: [{"kind": "U", "y": "x", "z": "y"}] for a in ("1", "2")}}


def test_stabilizer_reports_a_failing_generator_theorem(tmp_path, capsys):
    path = write_datum(tmp_path, "sign", SIGN)
    for command in ("validate", "braid"):
        assert run(capsys, command, path) == (0, "OK\n", "")
    assert run(capsys, "stabilizer", path) == (1, (
        "stabilizer order 3\n"
        "element 1.2\n"
        "element 2.1\n"
        "element e\n"
        "generator theorem: FAILS (generated 1 of 3)\n"
        "generating set: (empty)\n"), "")
    code, out, _ = run(capsys, "stabilizer", path, "--json")
    obj = json.loads(out)
    assert (code, obj["generator_theorem"], obj["order"]) == (1, False, 3)


def test_hecke_text_and_json(capsys):
    code, out, _ = run(capsys, "hecke", "rank1_tu")
    assert code == 0
    # terms print in basis order (dim ascending), leading term first
    assert "T_1[z1] = z2 + y" in out
    assert "leading terms match sigma: OK" in out
    code, out, _ = run(capsys, "hecke", "rank1_tu", "--json")
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["columns"]["1"]["z1"] == ["z2", "y"]


def test_stabilizer_refuses_non_involution(tmp_path, capsys):
    obj = {
        "root_system": {"family": "A1", "rank": 1, "raise_dims": [1]},
        "orbits": [
            {"id": "y", "dim": 1, "c": 0, "rk": 0, "s": 0, "open": True},
            {"id": "z", "dim": 0, "c": 0, "rk": 0, "s": 0, "open": False},
            {"id": "w", "dim": 0, "c": 0, "rk": 0, "s": 0, "open": False},
        ],
        "cells": {"1": [{"kind": "U", "y": "y", "z": "z"},
                        {"kind": "U", "y": "y", "z": "w"}]},
    }
    bad = str(tmp_path / "twou.json")
    Path(bad).write_text(json.dumps(obj), encoding="utf-8")
    # every reader of sigma refuses the orbit that two alpha-1 cells name,
    # and act does so also for an orbit that only one of them names
    refusal = (2, "", "error: orbit 'y' is named 2 times by the cells for alpha 1\n")
    for argv in (["act", bad, "1", "w"], ["braid", bad], ["stabilizer", bad], ["hecke", bad],
                 ["oracle", "compare", "torus", bad]):
        assert run(capsys, *argv) == refusal
        assert run(capsys, *argv, "--json") == refusal
    assert run(capsys, "validate", bad)[:2] == (
        1, "VIOLATION partition-defect at alpha 1: orbits covered more than once: y\n")


def test_hecke_involutions_verdict_ignores_orbit_names(tmp_path, capsys):
    # every T_alpha is an involution; only the braid relation fails, at an
    # orbit whose id contains the word "involution"
    obj = {
        "root_system": {"family": "A1xA1", "rank": 2, "raise_dims": [1, 1]},
        "orbits": [
            {"id": "p", "dim": 3, "c": 0, "rk": 0, "s": 0, "open": True},
            {"id": "q", "dim": 2, "c": 0, "rk": 0, "s": 0, "open": False},
            {"id": "involution", "dim": 1, "c": 0, "rk": 0, "s": 0, "open": False},
        ],
        "cells": {
            "1": [{"kind": "U", "y": "p", "z": "q"}, {"kind": "A", "y": "involution"}],
            "2": [{"kind": "U", "y": "q", "z": "involution"}, {"kind": "A", "y": "p"}],
        },
    }
    bad = tmp_path / "braidbad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "hecke", str(bad))
    assert code == 1
    assert "involutions: OK\n" in out
    assert "module braid: FAIL\n" in out
    code, out, _ = run(capsys, "hecke", str(bad), "--json")
    obj = json.loads(out)
    assert code == 1
    assert obj["involutions"] is True
    assert obj["module_braid_ok"] is False


@pytest.mark.parametrize("obj", [MISSING_ALPHA, PARTLY_COVERED], ids=["missing", "partial"])
def test_uncovered_orbit_is_refused(tmp_path, capsys, obj):
    path = write_datum(tmp_path, "uncovered", obj)
    refusal = (2, "", "error: orbit 'z' is not covered by any cell for alpha 2\n")
    for command in ("hecke", "braid", "stabilizer"):
        assert run(capsys, command, path) == refusal
        assert run(capsys, command, path, "--json") == refusal
    # act reads every sigma_alpha on first use, so a word whose letters'
    # cells cover the orbit is refused too
    for word in ("2", "1.1.1"):
        assert run(capsys, "act", path, word, "z") == refusal


@pytest.mark.parametrize("field,value", [
    ("raise_dims", [1.9]), ("raise_dims", [True]), ("raise_dims", 1),
    ("rank", True), ("rank", 1.0), ("family", 5)])
def test_malformed_root_system_is_refused(tmp_path, capsys, field, value):
    obj = {**REPEATED_KEY, "cells": {"1": [{"kind": "U", "y": "y", "z": "z"}]}}
    obj["root_system"] = {**obj["root_system"], field: value}
    path = write_datum(tmp_path, "bad", obj)
    for argv in (["validate", path], ["validate", path, "--json"], ["hecke", path]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: root_system: "), err


def test_repeated_simple_root_key_is_refused(tmp_path, capsys):
    path = write_datum(tmp_path, "repeated", REPEATED_KEY)
    assert run(capsys, "validate", path) == (
        2, "", "error: cells: keys '1' and '01' both name simple root 1\n")


@pytest.mark.parametrize("site,key,message", [
    ("cells", "x", "cells: bad simple root key 'x'"),
    ("P", "x", "P: bad simple root key 'x'"),
    ("cells", "9" * 33, "cells: simple root key has 33 digits, past the limit 32"),
    ("P", "9" * 33, "P: simple root key has 33 digits, past the limit 32"),
    ("cells", "01", "cells: keys '1' and '01' both name simple root 1"),
    ("P", "01", "P: keys '1' and '01' both name simple root 1"),
    ("cells", "2", "cells: simple root index 2 out of range 1..1"),
    ("P", "2", "parabolic index 2 outside 1..1"),
], ids=["cells-bad-key", "P-bad-key", "cells-digit-limit", "P-digit-limit",
        "cells-duplicate-key", "P-duplicate-key", "cells-range", "P-range"])
def test_simple_root_key_refusals_at_both_call_sites(tmp_path, capsys, site, key, message):
    """A datum's cells and a spec's P are objects keyed by simple root,
    read by one reader that refuses, naming the site, a key that is not
    an integer, one past MAX_RANK's digits and one naming an earlier key's
    root; the range of a key is each site's own check.  key is added
    after "1", whose value it shares."""
    if site == "cells":
        argv, obj = ["validate"], json.loads(datum_text("rank1_u"))
        keyed = obj["cells"]
    else:
        argv, obj = ["oracle", "enumerate"], json.loads(oracle_spec_text("torus"))
        keyed = obj["generators"]["P"]
    keyed[key] = keyed["1"]
    path = write_datum(tmp_path, "input", obj)
    assert run(capsys, *argv, path) == (2, "", f"error: {message}\n")


def test_wrong_length_lattice_row_is_refused_by_every_datum_command(tmp_path, capsys):
    obj = {**REPEATED_KEY, "cells": {"1": [{"kind": "U", "y": "y", "z": "z"}]}}
    obj["orbits"] = [obj["orbits"][0], {**_orbit("z", 0), "lattice": [[1, 0]]}]
    path = write_datum(tmp_path, "ambient", obj)
    refusal = (2, "", "error: orbit z: lattice ambient dimension differs from rank 1\n")
    for argv in (["validate", path], ["braid", path], ["hecke", path],
                 ["act", path, "1", "y"], ["stabilizer", path], ["export-dot", path]):
        assert run(capsys, *argv) == refusal, argv


def test_every_json_command_prints_one_object_or_refuses(tmp_path, capsys):
    bad = {name: write_datum(tmp_path, name, obj) for name, obj in (
        ("missing", MISSING_ALPHA), ("partial", PARTLY_COVERED),
        ("repeated", REPEATED_KEY))}
    twou = {**REPEATED_KEY, "orbits": [*REPEATED_KEY["orbits"], _orbit("w", 0)],
            "cells": {"1": [{"kind": "U", "y": "y", "z": "z"},
                            {"kind": "U", "y": "y", "z": "w"}]}}
    data = ["sl3_so12", "rank1_tu", "product_a1a1", write_datum(tmp_path, "twou", twou),
            "no_such_datum", *bad.values()]
    codes = set()
    for d in data:
        for argv in (["validate", d], ["braid", d], ["stabilizer", d], ["hecke", d],
                     ["act", d, "1", "y"], ["act", d, "1.9", "y"]):
            codes.add(run(capsys, *argv, "--json")[0])  # run checks the contract
    for argv in (["enumerate", "torus"], ["enumerate", "torus", "--q-list", "6"],
                 ["infer", "torus"], ["compare", "torus", "rank1_rt"],
                 ["compare", "torus", "rank1_u"], ["compare", "torus", bad["missing"]]):
        codes.add(run(capsys, "oracle", *argv, "--json")[0])
    assert codes == {0, 1, 2}


def test_hecke_flag_regular_rep(capsys, tmp_path):
    target = tmp_path / "a2.json"
    run(capsys, "gen-flag", "A", "2", "--out", str(target))
    code, out, _ = run(capsys, "hecke", str(target))
    assert code == 0
    assert "regular representation: group 6, images 6, span 6: regular" in out


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", "sl3_so12")
    assert code == 0
    assert out.startswith("digraph")
    assert '"x" -> "y1" [label="a1 RT"' in out
    code2, out2, _ = run(capsys, "export-dot", "sl3_so12")
    assert out2 == out


_QUOTED = r'"((?:[^"\\\n]|\\.)*)"'
_DOT_LINES = (
    re.compile(rf"  {_QUOTED} \[label={_QUOTED}\];"),
    re.compile(rf'  {_QUOTED} -> {_QUOTED} \[label="a\d+ [A-Z]+", style=\w+\];'),
    re.compile(r"  // a\d+ A \{((?:[^\\\n]|\\.)*)\}"),
)


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], text)


def _restore_ids(line: str, back: dict[str, str]) -> str:
    """line with every quoted or commented id parsed, unescaped and mapped
    through back; lines of no id pattern are returned as they are."""
    m = next(filter(None, (p.fullmatch(line) for p in _DOT_LINES)), None)
    if m is None:
        return line
    for g in reversed(range(1, len(m.groups()) + 1)):
        text = _unescape(m[g])
        if m.re is _DOT_LINES[0] and g == 2:  # the label "id (dim|c,rk,s)"
            oid, _, rest = text.rpartition(" (")
            text = f"{back[oid]} ({rest}"
        else:
            text = back[text]
        line = line[:m.start(g)] + text + line[m.end(g):]
    return line


@pytest.mark.parametrize("name", DATUM_NAMES)
def test_export_dot_escapes_ids(name, tmp_path, capsys):
    """Ids with a double quote, a backslash or a newline stay inside their
    quoted string or comment: parsing each line back gives the ids."""
    d = bundled_datum(name)
    odd = ['"; evil', "\\", "\n}", '\\"', "\\n"]
    names = {o.id: f"{o.id}{odd[i % len(odd)]}" for i, o in enumerate(d.orbits)}
    cells = {a: tuple(c._replace(members=tuple(map(names.get, c.members))) for c in cs)
             for a, cs in d.cells.items()}
    path = tmp_path / "odd.json"
    path.write_text(dumps(OrbitDatum(
        d.root_system, tuple(o._replace(id=names[o.id]) for o in d.orbits), cells)))
    code, out, _ = run(capsys, "export-dot", str(path))
    assert code == 0
    back = {new: old for old, new in names.items()}
    restored = [_restore_ids(line, back) for line in out.splitlines()]
    assert "\n".join(restored) + "\n" == export_dot(d)
    assert len(restored) == export_dot(d).count("\n")


def test_oracle_enumerate_json(capsys):
    code, out, _ = run(capsys, "oracle", "enumerate", "torus", "--json")
    assert code == 0
    obj = json.loads(out)
    assert [r["orbitCount"] for r in obj["reports"]] == [3, 3]
    assert obj["pointCounts"][2] == {"5": 20, "7": 42}


def test_oracle_enumerate_point_counts_run_in_prime_order(capsys):
    # the report lines run q = 5, then 11, and so does each pointCounts row;
    # --json keeps its keys as json.dumps sorts strings
    code, out, _ = run(capsys, "oracle", "enumerate", "torus", "--q-list", "5,11")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("spec")] == [
        "spec torus at q = 5", "spec torus at q = 11"]
    assert [line for line in out.splitlines() if line.startswith("pointCounts")] == [
        "pointCounts orbit 0: q=5: 5, q=11: 11",
        "pointCounts orbit 1: q=5: 5, q=11: 11",
        "pointCounts orbit 2: q=5: 20, q=11: 110"]
    code, out, _ = run(capsys, "oracle", "enumerate", "torus", "--q-list", "5,11", "--json")
    assert code == 0
    assert out.index('"11": 110') < out.index('"5": 20')


def test_oracle_enumerate_pinned_pair(capsys):
    code, out, _ = run(capsys, "oracle", "enumerate",
                       "product_diag_q5", "product_diag_q7")
    assert code == 0
    assert "2 B-orbits" in out
    assert "q = 5" in out and "q = 7" in out


def test_oracle_pinned_outside_qlist(capsys):
    code, _, err = run(capsys, "oracle", "enumerate", "product_diag_q5",
                       "--q-list", "7,11")
    assert code == 2
    assert "pinned" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_oracle_cap_below_one_is_a_usage_error(capsys, cap):
    code, out, err = run(capsys, "oracle", "enumerate", "torus", "--cap", cap)
    assert (code, out, err) == (2, "", "error: --cap must be >= 1\n")


@pytest.mark.parametrize("qs", ["5,5", "5,7,5"])
def test_oracle_repeated_prime_in_q_list_is_refused(capsys, qs):
    for argv in (["enumerate", "torus"], ["enumerate", "torus", "--json"],
                 ["infer", "torus"]):
        code, out, err = run(capsys, "oracle", *argv, "--q-list", qs)
        assert (code, out, err) == (2, "", f"error: bad q-list '{qs}': a prime is repeated\n")


def test_oracle_infer_deterministic(capsys):
    code, out1, _ = run(capsys, "oracle", "infer", "torus")
    code2, out2, _ = run(capsys, "oracle", "infer", "torus")
    assert code == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["datum"]["cells"]["1"][0]["kind"] == "RT"
    assert obj["pointCounts"]["o1"] == {"5": 20, "7": 42}


def test_oracle_compare_match_and_mismatch(capsys):
    code, out, _ = run(capsys, "oracle", "compare", "torus", "rank1_rt")
    assert (code, out) == (0, "match\n")
    code, out, _ = run(capsys, "oracle", "compare", "torus", "rank1_u")
    assert code == 1
    assert "mismatch" in out


def test_oracle_compare_needs_datum(capsys):
    code, _, err = run(capsys, "oracle", "compare", "torus")
    assert code == 2


def _gl2_pair(tmp_path: Path, name: str, blocks) -> list[str]:
    """Spec files of GL2 over A1 pinned to q = 5 and q = 7.  G is generated
    by diag(g, 1), diag(1, g) (g = 2 at q = 5, 3 at q = 7) and the two
    elementary transvections; ``blocks(q, G)`` gives the B, H and P blocks."""
    paths = []
    for q, g in ((5, 2), (7, 3)):
        G = [[[g, 0], [0, 1]], [[1, 0], [0, g]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]]
        paths.append(write_datum(tmp_path, f"{name}_q{q}", {
            "name": name, "root_system": "A1", "q": q, "dimension": 2,
            "generators": {"G": G, **blocks(q, G)}}))
    return paths


def test_oracle_refuses_merges_that_do_not_align(tmp_path, capsys):
    # B = H = the upper Borel; P_1 = G merges the two B-orbits at q = 5,
    # P_1 = B leaves them apart at q = 7
    pair = _gl2_pair(tmp_path, "gl2_split_p", lambda q, G: {
        "B": G[:3], "H": G[:3], "P": {"1": G if q == 5 else G[:3]}})
    note = ("note: pointCounts left out: "
            "merge structure at q = 7 is not isomorphic to q = 5\n")
    code, out, err = run(capsys, "oracle", "enumerate", *pair)
    assert code == 0 and out.count("2 B-orbits") == 2 and "pointCounts" not in out
    assert err == note
    code, out, err = run(capsys, "oracle", "enumerate", *pair, "--json")
    assert (code, json.loads(out)["pointCounts"], err) == (0, None, note)
    assert run(capsys, "oracle", "infer", *pair) == (
        2, "", "error: merge structure at q = 7 is not isomorphic to q = 5\n")


def test_oracle_refuses_an_orbit_without_a_size_fit(tmp_path, capsys):
    # B is generated by a companion matrix of order q^2 - 1, a non-split
    # torus, which is transitive on G/H = P^1: one orbit of q + 1 points
    companion = {5: [[0, 1], [3, 1]], 7: [[0, 1], [4, 1]]}
    pair = _gl2_pair(tmp_path, "gl2_nonsplit", lambda q, G: {
        "B": [companion[q]], "H": G[:3], "P": {"1": G}})
    refusal = (2, "", "error: orbit 0 fits no size c * q^a * (q-1)^b: "
                      "6 at q = 5, 8 at q = 7\n")
    for argv in (["infer", *pair], ["compare", *pair, "rank1_a"]):
        assert run(capsys, "oracle", *argv) == refusal
        assert run(capsys, "oracle", *argv, "--json") == refusal


def test_subcommand_arguments_in_order():
    # --json and --out are declared once for all subcommands and come last
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: [a.option_strings[-1] if a.option_strings else a.dest
                  for a in p._actions]
           for name, p in sub.choices.items()}
    assert got == {
        "gen-flag": ["--help", "family", "rank", "--raise-dims", "--out"],
        "validate": ["--help", "datum", "--json", "--out"],
        "act": ["--help", "datum", "word", "orbit", "--json", "--out"],
        "braid": ["--help", "datum", "--json", "--out"],
        "stabilizer": ["--help", "datum", "--json", "--out"],
        "hecke": ["--help", "datum", "--json", "--out"],
        "oracle": ["--help", "mode", "paths", "--q-list", "--cap", "--json", "--out"],
        "export-dot": ["--help", "datum", "--out"],
    }


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no_such_datum")
    assert code == 2
    assert "no such datum" in err


_TORUS = json.loads(oracle_spec_text("torus"))
_GENS = _TORUS["generators"]
_RANK1_U = json.loads(datum_text("rank1_u"))
#: rank1_u with both orbits named y.
_TWO_YS = {**_RANK1_U, "orbits": [{**o, "id": "y"} for o in _RANK1_U["orbits"]]}
#: rank1_u with both orbits open.
_TWO_OPENS = {**_RANK1_U, "orbits": [{**o, "open": True} for o in _RANK1_U["orbits"]]}


@pytest.mark.parametrize("argv,obj,message", [
    (["oracle", "enumerate"], {**_TORUS, "generators": []},
     "spec: generators must be an object"),
    (["oracle", "enumerate"], {**_TORUS, "generators": {**_GENS, "X": []}},
     "unknown generator blocks: ['X']"),
    (["oracle", "enumerate"], {**_TORUS, "generators": {**_GENS, "G": [[[1, 1]]]}},
     "G generators: matrix is not 2x2"),
    (["oracle", "enumerate"], {**_TORUS, "generators": {**_GENS, "B": []}},
     "B generators: no generators"),
    (["oracle", "enumerate"], {k: v for k, v in _TORUS.items() if k != "dimension"},
     "missing spec fields: ['dimension']"),
    (["oracle", "enumerate"], {**_TORUS, "generators": {**_GENS, "P": {"2": _GENS["P"]["1"]}}},
     "parabolic index 2 outside 1..1"),
    (["validate"], [_RANK1_U], "datum must be a JSON object"),
    (["validate"], {**_RANK1_U, "cells": {"x": _RANK1_U["cells"]["1"]}},
     "cells: bad simple root key 'x'"),
    (["validate"], {**_RANK1_U, "cells": {"1": _RANK1_U["cells"]["1"][0]}},
     "cells[1] must be a list"),
    (["validate"], {**_RANK1_U, "cells": [_RANK1_U["cells"]["1"]]},
     "cells must be an object keyed by simple root index"),
    (["validate"], {**_RANK1_U, "notes": [1]}, "notes must be a list of strings"),
    (["validate"], _TWO_YS, "duplicate orbit id 'y'"),
    (["validate"], {**_RANK1_U, "cells": {"1": [{"kind": "U", "y": "y", "z": "ghost"}]}},
     "alpha 1 cell y=y: unknown orbit id 'ghost'"),
    (["braid"], {**_RANK1_U, "cells": {"1": [{"kind": "U", "y": "y", "z": "ghost"}]}},
     "alpha 1 cell y=y: unknown orbit id 'ghost'"),
    (["validate"], {**_RANK1_U, "cells": {**_RANK1_U["cells"], "2": [{"kind": "A", "y": "y"}]}},
     "cells: simple root index 2 out of range 1..1"),
    (["validate"], {**_TWO_YS, "cells": {"1": [{"kind": "Q", "y": "y"}]}},
     "cells[1][0]: unknown kind 'Q'"),
    (["act", "rank1_u", "1..2", "y"], None,
     "bad word '1..2'; expected e or dotted indices like 1.2"),
    (["act", "rank1_u", "1", "q"], None, "unknown orbit id 'q'"),
    (["stabilizer"], _TWO_OPENS, "expected exactly one open orbit, got 2"),
    (["stabilizer", "--json"], _TWO_OPENS, "expected exactly one open orbit, got 2"),
    (["oracle", "enumerate", "no_such_spec"], None,
     "no such oracle spec file or bundled name: no_such_spec"),
    # torus's first G generator, diag(3, 1), is singular mod 3; G is
    # checked before P, as the spec lists it
    (["oracle", "enumerate", "torus", "--q-list", "3"], None,
     "G generators: singular generator ((0, 0), (0, 1)) mod 3"),
    (["gen-flag", "A33"], None, "rank 33 exceeds the limit 32"),
    (["validate"], {**_RANK1_U, "root_system": {"family": "A", "rank": 33}},
     "root_system: rank 33 exceeds the limit 32"),
    (["oracle", "enumerate"], {**_TORUS, "root_system": "A32xA1"},
     "rank 33 exceeds the limit 32"),
], ids=["spec-generators", "spec-block", "spec-shape", "spec-empty", "spec-missing",
        "spec-parabolic", "datum-object", "datum-key", "datum-cells", "datum-cells-object",
        "datum-notes", "datum-ids", "datum-member", "braid-member", "datum-range",
        "shape-before-structure", "word", "act-orbit", "stabilizer-opens",
        "stabilizer-opens-json", "spec-name", "spec-singular",
        "rank-limit-gen-flag", "rank-limit-datum", "rank-limit-spec"])
def test_input_refusals_name_the_defect(tmp_path, capsys, argv, obj, message):
    """Each refusal exits 2 with one error: line; obj, when given, is a
    change to a bundled spec or datum, passed as the last argument.  A
    datum with a shape defect (a record's JSON) and a structural one (the
    orbits or cells it names) is refused for the shape defect."""
    path = [] if obj is None else [write_datum(tmp_path, "input", obj)]
    assert run(capsys, *argv, *path) == (2, "", f"error: {message}\n")


_DIGITS = "9" * 5000  # past the 4,300 digits that int() converts by default
_NEAR = "9" * 4000  # within them: int() reads it, and a refusal quotes its start
_CLIPPED = "9" * 32 + "..."


@pytest.mark.parametrize("argv,text,message", [
    (["gen-flag", "A" + _DIGITS], None, "rank of A has 5000 digits, past the limit 32"),
    (["validate"], datum_text("rank1_u").replace('"dim": 2', '"dim": ' + _DIGITS), None),
    (["oracle", "enumerate"], oracle_spec_text("torus").replace("[2, 0]", f"[{_DIGITS}, 0]"),
     None),
    (["oracle", "enumerate"], oracle_spec_text("torus").replace('"1": [', f'"{_DIGITS}": ['),
     "P: simple root key has 5000 digits, past the limit 32"),
    (["validate"], datum_text("rank1_u").replace('"1": [', f'"{_DIGITS}": ['),
     "cells: simple root key has 5000 digits, past the limit 32"),
    (["oracle", "enumerate", "torus", "--q-list", "5," + _DIGITS], None,
     "q-list entry has 5000 digits, past the limit 3037000499"),
    (["act", "rank1_u", "1." + _DIGITS, "y"], None,
     "word letter has 5000 digits, past the limit 32"),
    (["gen-flag", "A", _DIGITS], None, "rank has 5000 digits, past the limit 32"),
    (["oracle", "enumerate", "torus", "--cap", _DIGITS], None,
     "--cap has 5000 digits, past the limit 9223372036854775807"),
    (["gen-flag", "A2", "--raise-dims", "1," + _DIGITS], None,
     "raise-dims entry has 5000 digits, past the limit 9223372036854775807"),
    (["gen-flag", "A2", "--raise-dims", "1," + _NEAR], None,
     "raise-dims entry has 4000 digits, past the limit 9223372036854775807"),
    (["validate"], datum_text("rank1_u").replace(
        '"family": "A", "rank": 1, "raise_dims": [1]',
        f'"family": "A2", "rank": 2, "raise_dims": [1, {_NEAR}]'),
     "root_system: raise dims must agree on Weyl-conjugate simple roots; "
     "conflict [1, " + "9" * 28 + "... in the orbit of (0, 1)"),
    (["validate"], datum_text("rank1_u").replace('"rank": 1', '"rank": ' + _NEAR),
     f"root_system: rank {_CLIPPED} exceeds the limit 32"),
    (["validate"], datum_text("rank1_u").replace('"family": "A", "rank": 1',
                                                 '"family": "A2", "rank": ' + _NEAR),
     f"root_system: token 'A2' conflicts with explicit rank {_CLIPPED}"),
    (["validate"], datum_text("rank1_u").replace('"family": "A", "rank": 1',
                                                 '"family": "A1xA1", "rank": ' + _NEAR),
     f"root_system: rank {_CLIPPED} does not match A1xA1 (rank 2)"),
    (["validate"], datum_text("rank1_u").replace('"rank": 1', '"rank": -' + _NEAR),
     "root_system: family A needs rank >= 1, got -" + "9" * 31 + "..."),
    (["oracle", "enumerate"], oracle_spec_text("torus").replace('"q": null', '"q": ' + _NEAR),
     None),  # the message names the spec's path: spec ... is pinned to q = 99...
    (["oracle", "enumerate"], oracle_spec_text("torus").replace('"dimension": 2',
                                                                '"dimension": ' + _NEAR),
     f"spec: dimension {_CLIPPED} exceeds the limit 16"),
], ids=["gen-flag-rank", "validate-dim", "oracle-entry", "oracle-p-key", "datum-cells-key",
        "q-list", "act-word", "gen-flag-rank-argument", "cap", "raise-dims",
        "raise-dims-4000", "datum-raise-dims-conflict", "datum-rank", "datum-rank-conflict",
        "datum-rank-mismatch", "datum-rank-negative", "spec-pinned-q", "spec-dimension"])
def test_integers_past_the_digit_limit_are_refused(tmp_path, capsys, argv, text, message):
    """A 5,000-digit rank, datum field, spec entry, simple root key, prime,
    word letter or raise dimension is refused with exit 2 and one short
    error: line that does not echo the digits, not a traceback; a number
    token is refused for its digit count before int() reads it.  A 4,000-
    digit integer, which int() and JSON read, is quoted by its first 32
    characters where a refusal names it."""
    path = tmp_path / "input.json"
    if text is not None:
        assert _NEAR in text
        path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *argv, *([] if text is None else [str(path)]))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "9" * 40 not in err and len(err.encode()) < 200
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,text,message", [
    (["act", "rank1_u", "1." + "x" * 5000, "y"], None,
     "bad word '1." + "x" * 29 + "...; expected e or dotted indices like 1.2"),
    (["oracle", "enumerate", "torus", "--q-list", "5,x" + "9" * 5000], None,
     "bad q-list '5,x" + "9" * 28 + "...; expected comma-separated primes"),
    (["validate"], datum_text("rank1_u").replace('"1": [', f'"x{_DIGITS}": ['),
     "cells: bad simple root key 'x" + "9" * 30 + "..."),
    (["oracle", "enumerate"], oracle_spec_text("torus").replace('"1": [', f'"x{_DIGITS}": ['),
     "P: bad simple root key 'x" + "9" * 30 + "..."),
    (["oracle", "enumerate", "torus", "--q-list", "00000000000005,7"], None, None),
], ids=["word", "q-list", "datum-cells-key", "oracle-p-key", "leading-zeros"])
def test_refusals_quote_a_short_prefix_of_a_bad_token(tmp_path, capsys, argv, text, message):
    """A long token that is no integer is quoted by the first 32
    characters of its repr; leading zeros are not digits past a limit."""
    path = tmp_path / "input.json"
    path.write_text(text or "", encoding="utf-8")
    code, out, err = run(capsys, *argv, *([] if text is None else [str(path)]))
    if message is None:
        assert code == 0, err
        return
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,errors", [
    (["validate"], None), (["oracle", "enumerate"], None),
    (["validate", "-"], "strict"), (["validate", "-"], "surrogateescape"),
], ids=["validate", "oracle-enumerate", "stdin-strict", "stdin-surrogateescape"])
def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, monkeypatch, argv, errors):
    """A datum on stdin is read as a file is, whatever the decoding of
    sys.stdin: strict, as under a UTF-8 locale, or surrogateescape, as
    under the POSIX one."""
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe{}")
    if errors is None:
        name, code, out, err = bad, *run(capsys, *argv, str(bad))
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes()),
                                                          encoding="utf-8", errors=errors))
        name, code, out, err = "stdin", *run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {name} is not UTF-8: invalid start byte at byte 0\n"


#: Files in the working directory of every resolution case: two named
#: like bundled names, a directory, and bytes that are not UTF-8.
_CWD_FILES = {"rank1_u": b"[]", "torus": b"[]", "dir": None, "bad.bin": b"\xff\xfe{}"}


@pytest.mark.parametrize("argv,stdin,want", [
    (["validate", "rank1_u"], b"", (2, "", "error: datum must be a JSON object\n")),
    (["oracle", "enumerate", "torus"], b"",
     (2, "", "error: oracle spec must be a JSON object\n")),
    (["validate", "-"], datum_text("rank1_u").encode(), (0, "OK\n", "")),
    (["oracle", "compare", "torus_normalizer", "-"], datum_text("rank1_ri").encode(),
     (0, "match\n", "")),
    (["oracle", "enumerate", "-"], oracle_spec_text("horospherical").encode(),
     (2, "", "error: no such oracle spec file or bundled name: -\n")),
    (["validate", "./dir"], b"", (2, "", "error: [Errno 21] Is a directory: './dir'\n")),
    (["oracle", "enumerate", "./dir"], b"",
     (2, "", "error: [Errno 21] Is a directory: './dir'\n")),
    (["validate", "nope"], b"", (2, "", "error: no such datum file or bundled name: nope\n")),
    (["oracle", "enumerate", "nope"], b"",
     (2, "", "error: no such oracle spec file or bundled name: nope\n")),
    (["validate", "horospherical"], b"",
     (2, "", "error: no such datum file or bundled name: horospherical\n")),
    (["oracle", "enumerate", "sl3_so12"], b"",
     (2, "", "error: no such oracle spec file or bundled name: sl3_so12\n")),
    (["validate", "./bad.bin"], b"",
     (2, "", "error: ./bad.bin is not UTF-8: invalid start byte at byte 0\n")),
    (["oracle", "enumerate", "./bad.bin"], b"",
     (2, "", "error: ./bad.bin is not UTF-8: invalid start byte at byte 0\n")),
], ids=["datum-file-before-bundled", "spec-file-before-bundled", "datum-stdin",
        "compare-datum-stdin", "spec-stdin-refused", "datum-directory", "spec-directory",
        "datum-unknown", "spec-unknown", "spec-name-as-datum", "datum-name-as-spec",
        "datum-not-utf8-as-typed", "spec-not-utf8-as-typed"])
def test_an_argument_resolves_to_stdin_then_a_file_then_a_bundled_name(
        tmp_path, capsys, monkeypatch, argv, stdin, want):
    """A datum or oracle spec argument is "-" for stdin (a datum only),
    else the file at that path, else a bundled name of its own kind; a
    refusal names the argument as typed."""
    for name, data in _CWD_FILES.items():
        if data is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    assert run(capsys, *argv) == want


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["gen-flag", "A", "x"], "argument rank: invalid int value: 'x'"),
    (["oracle", "enumerate", "torus", "--cap", "1e9"], "argument --cap: invalid int value: '1e9'"),
], ids=["rank", "cap"])
def test_a_short_bad_integer_argument_keeps_argparse_text(capsys, argv, message):
    """Only a text past the digit limit is refused through check_digits;
    argparse refuses any other, after its usage line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


#: The package's data directory, whose files name bundled data by path.
_DATA = resources.files("weylorb") / "data"


def test_bundled_path_usable_as_argument(capsys):
    code, out, _ = run(capsys, "validate", str(_DATA / "sl3_so12.json"))
    assert (code, out) == (0, "OK\n")


def test_gen_flag_past_group_cap_is_refused(capsys):
    # |W(A8)| = 9! = 362880 > DEFAULT_GROUP_CAP
    code, out, err = run(capsys, "gen-flag", "A8")
    assert code == 2
    assert out == ""
    assert err == "error: Weyl group exceeds cap 51840: reached 51841 elements\n"


_WEYL_COMMANDS_WITHOUT_NUMPY = """
import contextlib, io, sys, types
from weylorb.cli import main

flag = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["gen-flag", "A2", "--out", flag])]
    codes += [main([cmd, flag]) for cmd in ("validate", "braid", "hecke", "stabilizer")]
    try:
        main(["--help"])
    except SystemExit as exc:
        codes.append(exc.code)
assert codes == [0] * 6, codes
assert "numpy" not in sys.modules
# registered for lazy loading, but not executed
assert type(sys.modules["weylorb.oracle"]) is not types.ModuleType
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["oracle", "enumerate", "torus", "--q-list", "5"])
assert code == 0 and out.getvalue().startswith("spec "), out.getvalue()
assert type(sys.modules["weylorb.oracle"]) is types.ModuleType
assert "numpy" not in sys.modules
"""


def _fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script in a new interpreter that imports this weylorb."""
    src = Path(weylorb.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_weyl_commands_do_not_load_numpy(tmp_path):
    proc = _fresh_python(_WEYL_COMMANDS_WITHOUT_NUMPY, str(tmp_path / "flag.json"))
    assert proc.returncode == 0, proc.stderr


# Importing dataclasses costs every process about 10 ms (it pulls in inspect,
# ast, dis and tokenize), and each frozen dataclass about 1 ms more to build;
# fractions pulls in decimal and numbers, about 4 ms.
_NOT_IMPORTED = """
import contextlib, io, sys
module = sys.argv[1]
sys.modules.pop(module, None)  # in case the interpreter's start-up loaded it
from weylorb.cli import main

for argv in map(str.split, sys.argv[2:]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (argv, code)
    assert module not in sys.modules, argv
"""


def test_no_command_imports_dataclasses():
    proc = _fresh_python(_NOT_IMPORTED, "dataclasses", "--help", "gen-flag A2", *(
        f"{command} sl3_so12" for command in ("validate", "braid", "stabilizer", "hecke")),
        "oracle enumerate torus --q-list 5",
        "oracle compare product_diag_q5 product_diag_q7 product_a1a1")
    assert proc.returncode == 0, proc.stderr


def test_help_does_not_import_json():
    proc = _fresh_python(_NOT_IMPORTED, "json", "--help", "hecke --help", "oracle --help")
    assert proc.returncode == 0, proc.stderr


def test_other_commands_do_not_load_numpy(tmp_path):
    flag = tmp_path / "b3.json"
    proc = _fresh_python(_NOT_IMPORTED, "numpy", f"gen-flag B3 --out {flag}",
                         f"act {flag} 1.2.3 e", f"export-dot {flag}", f"hecke {flag} --json",
                         "oracle infer horospherical",
                         "oracle compare product_diag_q5 product_diag_q7 product_a1a1 "
                         "--q-list 5,7")
    assert proc.returncode == 0, proc.stderr


def test_lattice_free_commands_do_not_import_fractions(tmp_path):
    flag = tmp_path / "a2.json"
    proc = _fresh_python(_NOT_IMPORTED, "fractions", "--help", f"gen-flag A2 --out {flag}", *(
        f"{command} {datum}" for datum in (flag, "sl3_so12")
        for command in ("validate", "braid", "stabilizer", "hecke", "export-dot")),
        f"act {flag} 1.2 e", "oracle enumerate torus --q-list 5")
    assert proc.returncode == 0, proc.stderr


# A layer not yet executed is still a LazyLoader stub, whose type is a
# subclass of types.ModuleType until its first attribute access.
_EXECUTED_LAYERS = """
import contextlib, io, json, sys, types
from weylorb import _LAYERS
from weylorb.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, [name for name in _LAYERS
                         if type(sys.modules["weylorb." + name]) is types.ModuleType]]))
"""

_WEYL = {"coxeter", "datum"}
_ALL_LAYERS = {"coxeter", "datum", "bundled", "action", "hecke", "oracle"}
_BUNDLED_SPEC = str(_DATA / "oracle" / "torus.json")


@pytest.mark.parametrize("argv,executes,skips,want", [
    (["gen-flag", "A2"], _WEYL, {"bundled", "action", "hecke", "oracle"}, 0),
    (["validate", "{flag}"], _WEYL, {"bundled", "action", "hecke", "oracle"}, 0),
    (["validate", "{flag}", "--json"], _WEYL, {"bundled", "action", "hecke", "oracle"}, 0),
    (["export-dot", "{flag}"], _WEYL, {"bundled", "action", "hecke", "oracle"}, 0),
    (["--help"], set(), _ALL_LAYERS, 0),
    (["braid", "{flag}"], _WEYL | {"action"}, {"bundled", "hecke", "oracle"}, 0),
    (["stabilizer", "{flag}"], _WEYL | {"action"}, {"bundled", "hecke", "oracle"}, 0),
    (["act", "{flag}", "1.2", "e"], _WEYL | {"action"}, {"bundled", "hecke", "oracle"}, 0),
    (["hecke", "{flag}"], _WEYL | {"hecke"}, {"bundled", "action", "oracle"}, 0),
    (["oracle", "enumerate", "torus", "--q-list", "5"], {"coxeter", "bundled", "oracle"},
     {"datum", "action", "hecke"}, 0),
    # refusals: an OracleError from the freshly loaded oracle, and an
    # empty q-list refused before the oracle runs
    (["oracle", "enumerate", "torus", "--q-list", "6"], {"coxeter", "bundled", "oracle"},
     {"datum", "action", "hecke"}, 2),
    (["oracle", "enumerate", "torus", "--q-list", ""], set(), _ALL_LAYERS, 2),
    # argparse usage errors: a missing argument, an unknown option
    (["gen-flag"], set(), _ALL_LAYERS, 2),
    (["validate", "{flag}", "--bogus"], set(), _ALL_LAYERS, 2),
    # a spec file: coxeter reads its root system; neither datum nor bundled runs
    (["oracle", "enumerate", _BUNDLED_SPEC, "--q-list", "5"], {"coxeter", "oracle"},
     {"datum", "bundled", "action", "hecke"}, 0),
    # infer judges its candidate with validate and braid_check
    (["oracle", "infer", "torus"], _WEYL | {"bundled", "action", "oracle"}, {"hecke"}, 0),
    (["hecke", "sl3_so12"], _WEYL | {"bundled", "hecke"}, {"action", "oracle"}, 0),
    # a RootSystemError is an input error while datum is still lazy
    (["gen-flag", "Q3"], {"coxeter"}, {"datum", "bundled", "action", "hecke", "oracle"}, 2),
])
def test_commands_execute_only_the_layers_they_run(tmp_path, argv, executes, skips, want):
    assert executes | skips == _ALL_LAYERS and not executes & skips
    flag = tmp_path / "flag.json"
    flag.write_text(dumps(generate_flag_datum(build_root_system("A2"))), encoding="utf-8")
    proc = _fresh_python(_EXECUTED_LAYERS, *(a.format(flag=flag) for a in argv))
    assert proc.returncode == 0, proc.stderr
    code, executed = json.loads(proc.stdout)
    assert (code, set(executed)) == (want, executes)


@pytest.mark.parametrize("argv", [
    ["gen-flag", "A2", "--out", "{tmp}/missing/dir/a2.json"],
    ["validate", "sl3_so12", "--out", "{tmp}"],
])
def test_failed_out_write_is_an_input_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


#: A1xA1 data whose sigmas generate a 3-cycle, where m = 2.
BRAID_BREAKER = {"root_system": {"family": "A1xA1", "rank": 2, "raise_dims": [1, 1]},
                 "orbits": [_orbit("p", 3, True), _orbit("q", 2), _orbit("r", 1)],
                 "cells": {"1": [{"kind": "U", "y": "p", "z": "q"}, {"kind": "A", "y": "r"}],
                           "2": [{"kind": "U", "y": "q", "z": "r"}, {"kind": "A", "y": "p"}]}}


@pytest.mark.parametrize("argv,want", [
    (["gen-flag", "A2"], 0),
    (["stabilizer", "{bad}"], 1),
    (["oracle", "enumerate", "torus", "--q-list", "6"], 2),
    (["gen-flag"], 2),
    (["--help"], 0),
], ids=["clean", "violation", "refusal", "usage-error", "help"])
def test_process_entry_matches_main(tmp_path, capsys, monkeypatch, argv, want):
    """python -m weylorb.cli runs main() with the collector off; output and
    exit code are main()'s, and main() itself leaves the collector alone."""
    argv = [a.format(bad=write_datum(tmp_path, "bad", BRAID_BREAKER)) for a in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
    frozen = gc.get_freeze_count()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert gc.isenabled() and gc.get_freeze_count() == frozen
    captured = capsys.readouterr()
    src = Path(weylorb.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "weylorb.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    assert code == want
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out.encode(), captured.err.encode())


_ENTRY_GC = """
import gc, json, sys
import weylorb.cli

seen = []
weylorb.cli.main = lambda: seen.append(gc.isenabled()) or 3
try:
    weylorb.cli.entry()
except SystemExit as exc:
    print(json.dumps([exc.code, seen, gc.isenabled(), gc.get_freeze_count() > 0]))
"""


def test_process_entry_runs_main_with_the_collector_off_and_freezes_the_heap():
    proc = _fresh_python(_ENTRY_GC)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [3, [False], False, True]


_GOLDEN = json.loads(golden_cli.GOLDEN.read_text(encoding="utf-8"))


def test_golden_transcript_lists_the_recorded_commands():
    assert [entry["argv"] for entry in _GOLDEN.values()] == sorted(
        golden_cli.commands(), key=" ".join)


@pytest.fixture(scope="module")
def golden_paths(tmp_path_factory):
    with contextlib.redirect_stdout(io.StringIO()):
        return golden_cli.write_data(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("label", sorted(_GOLDEN))
def test_golden_transcript_replays(label, golden_paths, monkeypatch):
    """Exit code, stdout digest and error line as recorded.  Commands see
    Weyl elements as ids and canonical words; hecke's call of
    enumerate_group, where the benchmark reads |W|, is the exception."""
    def refuse(self, *args):
        raise AssertionError("a command built a WeylElement")

    entry = _GOLDEN[label]
    if entry["argv"][0] != "hecke":
        monkeypatch.setattr(coxeter.WeylElement, "__init__", refuse)
    assert golden_cli.run(entry["argv"], golden_paths) == {
        k: entry[k] for k in ("code", "stdout_sha256", "error")}
