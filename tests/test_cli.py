"""Command-line interface: exit codes, output shapes, determinism."""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylorb
from weylorb.bundled import bundled_path, datum_text
from weylorb.cli import build_parser, main
from weylorb.coxeter import build_root_system
from weylorb.datum import dumps, generate_flag_datum, loads


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
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
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
    bad = tmp_path / "twou.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    message = "sigma_1 is not an involution: it sends w to y and y to z"
    for command in ("stabilizer", "braid"):
        assert run(capsys, command, str(bad))[:2] == (1, f"VIOLATION {message}\n")
        code, out, _ = run(capsys, command, str(bad), "--json")
        assert (code, json.loads(out)) == (1, {"ok": False, "obstruction": message})


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
    assert run(capsys, "act", path, "2", "z") == refusal
    # letters whose cells cover the orbit still act
    assert run(capsys, "act", path, "1.1.1", "z") == (0, "y\n", "")


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


def test_oracle_enumerate_json(capsys):
    code, out, _ = run(capsys, "oracle", "enumerate", "torus", "--json")
    assert code == 0
    obj = json.loads(out)
    assert [r["orbitCount"] for r in obj["reports"]] == [3, 3]
    assert obj["pointCounts"][2] == {"5": 20, "7": 42}


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


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bundled_path_usable_as_argument(capsys):
    code, out, _ = run(capsys, "validate", bundled_path("sl3_so12"))
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
from weylorb.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, [name for name in ("action", "bundled", "hecke", "oracle")
                         if type(sys.modules["weylorb." + name]) is types.ModuleType]]))
"""


@pytest.mark.parametrize("argv,executes,skips,want", [
    (["gen-flag", "A2"], set(), {"action", "hecke", "oracle"}, 0),
    (["validate", "{flag}"], set(), {"action", "hecke", "oracle"}, 0),
    (["validate", "{flag}", "--json"], set(), {"action", "hecke", "oracle"}, 0),
    (["export-dot", "{flag}"], set(), {"action", "hecke", "oracle"}, 0),
    (["--help"], set(), {"action", "hecke", "oracle"}, 0),
    (["braid", "{flag}"], {"action"}, {"hecke", "oracle"}, 0),
    (["stabilizer", "{flag}"], {"action"}, {"hecke", "oracle"}, 0),
    (["act", "{flag}", "1.2", "e"], {"action"}, {"hecke", "oracle"}, 0),
    (["hecke", "{flag}"], {"hecke"}, {"oracle"}, 0),
    (["oracle", "enumerate", "torus", "--q-list", "5"], {"oracle"}, set(), 0),
    # refusals: an OracleError from the freshly loaded oracle, and an
    # empty q-list refused before the oracle runs
    (["oracle", "enumerate", "torus", "--q-list", "6"], {"oracle"}, set(), 2),
    (["oracle", "enumerate", "torus", "--q-list", ""], set(), {"oracle"}, 2),
])
def test_commands_execute_only_the_layers_they_run(tmp_path, argv, executes, skips, want):
    flag = tmp_path / "flag.json"
    flag.write_text(dumps(generate_flag_datum(build_root_system("A2"))), encoding="utf-8")
    proc = _fresh_python(_EXECUTED_LAYERS, *(a.format(flag=flag) for a in argv))
    assert proc.returncode == 0, proc.stderr
    code, executed = json.loads(proc.stdout)
    assert code == want
    assert executes <= set(executed) and not skips & set(executed), executed


@pytest.mark.parametrize("argv", [
    ["gen-flag", "A2", "--out", "{tmp}/missing/dir/a2.json"],
    ["validate", "sl3_so12", "--out", "{tmp}"],
])
def test_failed_out_write_is_an_input_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
