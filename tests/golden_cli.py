"""Golden transcript of the command line, and its recorder.

``golden_cli.json`` holds, per command, the exit code, the sha256 of
stdout and the ``error:`` line on stderr (or null).  The commands cover
every bundled datum, gen-flag, the three oracle modes, flag data written
by gen-flag, hand-made data that reach every ``hecke`` PROBLEM and FAIL
line and the lattice checks of every cell kind, and files that are not
JSON.  An argument ``@name`` stands for a file: one of :data:`DATA` or
:data:`TEXTS`, or a flag datum ``@flag-<token>`` that gen-flag writes.

Re-record from the repository root with
``PYTHONPATH=src python tests/golden_cli.py``, which names each entry it
adds, removes or changes against the file it overwrites; tests/test_cli.py
replays the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from weylorb.bundled import DATUM_NAMES, bundled_datum
from weylorb.cli import main
from weylorb.datum import datum_from_obj

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _orbit(oid: str, dim: int, is_open: bool = False, rk: int = 0, lattice=None) -> dict:
    out = {"id": oid, "dim": dim, "c": 0, "rk": rk, "s": 0, "open": is_open}
    if lattice is not None:
        out["lattice"] = lattice
    return out


_A1 = {"family": "A1", "rank": 1, "raise_dims": [1]}
_A1XA1 = {"family": "A1xA1", "rank": 2, "raise_dims": [1, 1]}

#: Hand-made data, by the file name the replay writes them under.
DATA = {
    # two U cells share y: the alpha-1 cells name y twice, so every reader
    # of sigma refuses it (exit 2) and validate reports a partition-defect
    "non-involution": {
        "root_system": _A1,
        "orbits": [_orbit("y", 1, True), _orbit("z", 0), _orbit("w", 0)],
        "cells": {"1": [{"kind": "U", "y": "y", "z": "z"},
                        {"kind": "U", "y": "y", "z": "w"}]}},
    # RT cell with dim(y) = dim(z2): T_1 [z1] = [y] + [z2] has no unique leading term
    "leading-tie": {
        "root_system": _A1,
        "orbits": [_orbit("y", 1, True), _orbit("z1", 0), _orbit("z2", 1)],
        "cells": {"1": [{"kind": "RT", "y": "y", "z1": "z1", "z2": "z2"}]}},
    # TU cell with dim(y) < dim(z2): the leading term of T_1 [z1] is [y], not sigma's [z2]
    "sigma-mismatch": {
        "root_system": _A1,
        "orbits": [_orbit("y", 1, True), _orbit("z1", 3), _orbit("z2", 2)],
        "cells": {"1": [{"kind": "TU", "y": "y", "z1": "z1", "z2": "z2"}]}},
    # the sigmas generate a 3-cycle on A1xA1, where m = 2
    "module-braid": {
        "root_system": _A1XA1,
        "orbits": [_orbit("p", 3, True), _orbit("q", 2), _orbit("r", 1)],
        "cells": {"1": [{"kind": "U", "y": "p", "z": "q"}, {"kind": "A", "y": "r"}],
                  "2": [{"kind": "U", "y": "q", "z": "r"}, {"kind": "A", "y": "p"}]}},
    # an orbit named "e" in a TU datum: three orbits for a group of order 2
    "e-not-regular": {
        "root_system": _A1,
        "orbits": [_orbit("e", 2, True, rk=1), _orbit("z1", 1), _orbit("z2", 0)],
        "cells": {"1": [{"kind": "TU", "y": "e", "z1": "z1", "z2": "z2"}]}},
    # alpha 2 has no cell: every command that reads sigma_2 refuses (exit 2)
    "uncovered": {
        "root_system": _A1XA1,
        "orbits": [_orbit("y", 1, True), _orbit("z", 0)],
        "cells": {"1": [{"kind": "U", "y": "y", "z": "z"}]}},
    # one cell of every kind for alpha 1 of A2, each lattice span(0, 1),
    # which s_1 moves to span(1, 1): every span check fails; one cell has
    # partial lattice data and one none
    "lattice-kinds": {
        "root_system": {"family": "A2", "rank": 2, "raise_dims": [1, 1]},
        "orbits": [
            *(_orbit(oid, dim, oid == "u", lattice=[[0, 1]]) for oid, dim in (
                ("u", 9), ("uz", 8), ("t", 7), ("t1", 6), ("t2", 5), ("a", 7),
                ("r", 6), ("r1", 5), ("r2", 5), ("i", 4), ("iz", 3), ("n", 4),
                ("nz", 3), ("p", 2))),
            _orbit("pz", 1), _orbit("x", 2), _orbit("xz", 1)],
        "cells": {"1": [
            {"kind": "U", "y": "u", "z": "uz"},
            {"kind": "TU", "y": "t", "z1": "t1", "z2": "t2"},
            {"kind": "A", "y": "a"},
            {"kind": "RT", "y": "r", "z1": "r1", "z2": "r2"},
            {"kind": "RI", "y": "i", "z": "iz"},
            {"kind": "N", "y": "n", "z": "nz"},
            {"kind": "U", "y": "p", "z": "pz"},
            {"kind": "U", "y": "x", "z": "xz"}]}},
}

#: Files that are not JSON, by name.
TEXTS = {"not-json": "{"}

#: Flag data that gen-flag writes before the replay, by token.
FLAGS = ("A2", "G2", "B3", "A1xA1")

CHECKS = ("validate", "braid", "stabilizer", "hecke")


def _act_argv(d) -> list[str]:
    word = ".".join(str(a) for a in range(1, d.root_system.rank + 1))
    return ["act", word, d.open_orbit().id]


def commands() -> list[list[str]]:
    """The recorded command lines."""
    out: list[list[str]] = []

    def checks(datum: str, act: list[str]) -> None:
        for command in CHECKS:
            out.extend([[command, datum], [command, datum, "--json"]])
        argv = [act[0], datum, *act[1:]]
        out.extend([argv, [*argv, "--json"], ["export-dot", datum]])

    for name in DATUM_NAMES:
        checks(name, _act_argv(bundled_datum(name)))
    for token in FLAGS:
        checks(f"@flag-{token}", ["act", "1.2", "e"])
    for name, obj in DATA.items():
        checks(f"@{name}", _act_argv(datum_from_obj(obj)))
    out.extend([["gen-flag", "A2"], ["gen-flag", "G2"], ["gen-flag", "A1xA1"],
                ["gen-flag", "BC2", "--raise-dims", "2,1"], ["gen-flag", "Q3"]])
    for argv in (["enumerate", "torus"], ["compare", "torus", "rank1_rt"],
                 ["compare", "torus", "rank1_u"],
                 ["enumerate", "torus", "--q-list", "6"]):
        out.extend([["oracle", *argv], ["oracle", *argv, "--json"]])
    out.append(["oracle", "infer", "horospherical"])
    out.append(["validate", "no_such_datum"])
    out.extend([["validate", "@not-json"], ["oracle", "enumerate", "@not-json"]])
    return out


def write_data(directory: Path) -> dict[str, str]:
    """Write every ``@`` file into directory; returns name -> path."""
    paths = {}
    for name, text in [*((n, json.dumps(obj)) for n, obj in DATA.items()), *TEXTS.items()]:
        path = directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[f"@{name}"] = str(path)
    for token in FLAGS:
        path = directory / f"flag-{token}.json"
        assert main(["gen-flag", token, "--out", str(path)]) == 0
        paths[f"@flag-{token}"] = str(path)
    return paths


def run(argv: list[str], paths: dict[str, str]) -> dict:
    """Exit code, stdout digest and error line of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(a, a) for a in argv])
    errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
    return {"code": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "error": errors[0] if errors else None}


def record(directory: Path) -> dict:
    paths = write_data(directory)
    return {" ".join(argv): {"argv": argv, **run(argv, paths)} for argv in commands()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        transcript = record(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(transcript, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    for label in sorted(old.keys() | transcript.keys()):
        if label not in old:
            print(f"added: {label}")
        elif label not in transcript:
            print(f"removed: {label}")
        elif old[label] != transcript[label]:
            print(f"changed: {label}")
    print(f"{len(transcript)} commands -> {GOLDEN}")
