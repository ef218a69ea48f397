"""The three benchmark workloads as sequences of CLI commands.

Each command carries its expected exit code, a semantic check of its
output and, where the output does not depend on the seed, a byte digest
recorded in ``expected.json``.  A command fails when any of these does
not hold; failures feed ``fail_ratio`` and are never dropped.

``tiny=True`` builds the same workload on the smallest inputs, for the
benchmark's own tests.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

BUNDLED = ("rank1_u", "rank1_tu", "rank1_a", "rank1_rt", "rank1_ri",
           "rank1_n", "sl3_so12", "product_a1a1")

#: Bundled oracle specs run in cli-small, with their orbit sizes as
#: functions of q.
BUNDLED_SPECS = {
    "torus": lambda q: [q, q, q * (q - 1)],
    "horospherical": lambda q: [(q - 1) ** 2, q * (q - 1) ** 2],
    "torus_normalizer": lambda q: [q, q * (q - 1) // 2],
}

Check = Callable[[bytes], "str | None"]


@dataclass
class Command:
    id: str                      # stable label; keys the expected digest
    argv: list[str]
    code: int = 0                # expected exit code
    check: Check | None = None   # semantic check of stdout
    digest: bool = False         # stdout must match expected.json[id]
    stdin: str | None = None     # file in the work dir fed to stdin
    save_as: str | None = None   # keep stdout under this name


@dataclass
class Workload:
    commands: list[Command]
    inputs: dict[str, str] = field(default_factory=dict)   # file -> sha256
    sizes: dict[str, int] = field(default_factory=dict)


# -- checks ------------------------------------------------------------------

def text_is(expected: str) -> Check:
    def check(out: bytes):
        if out.decode() != expected:
            return f"expected {expected!r}, got {out.decode()[:200]!r}"
    return check


def has_lines(*lines: str) -> Check:
    def check(out: bytes):
        got = out.decode().splitlines()
        missing = [ln for ln in lines if ln not in got]
        if missing:
            return f"missing line(s) {missing}"
        bad = [ln for ln in got if ln.startswith(("PROBLEM", "VIOLATION"))]
        if bad:
            return f"unexpected {bad[0]!r}"
    return check


def rejected(out: bytes):
    if not any(ln.startswith("VIOLATION ") and " at " in ln
               for ln in out.decode().splitlines()):
        return "mutant rejected without a VIOLATION witness line"


def flag_datum(system: str, dims: list[int]) -> Check:
    """gen-flag output: one orbit per Weyl element, a unique open orbit of
    the expected dimension and |W|/2 U cells per simple root."""
    order = inputs.SYSTEMS[system][0]

    def check(out: bytes):
        obj = json.loads(out)
        if obj["root_system"]["raise_dims"] != dims:
            return f"raise dims {obj['root_system']['raise_dims']} != {dims}"
        if len(obj["orbits"]) != order:
            return f"{len(obj['orbits'])} orbits, expected |W| = {order}"
        opens = [o["dim"] for o in obj["orbits"] if o["open"]]
        if opens != [inputs.open_dim(system, dims)]:
            return f"open orbit dims {opens}, expected {inputs.open_dim(system, dims)}"
        for alpha, cells in obj["cells"].items():
            if len(cells) != order // 2 or any(c["kind"] != "U" for c in cells):
                return f"alpha {alpha}: expected {order // 2} U cells"
    return check


def compare_match(fits: list[tuple[int, int]]) -> Check:
    """compare --json: a match whose fitted orbit sizes are the closed
    forms q^a (q-1)^b, listed from the open orbit down."""
    want = [f"o{i + 1}: size(q) = 1 * q^{a} * (q-1)^{b}"
            for i, (a, b) in enumerate(fits)]

    def check(out: bytes):
        obj = json.loads(out)
        if obj["match"] is not True:
            return f"no match: {obj['lines']}"
        got = [n for n in obj["confidence"] if re.match(r"o\d+: size", n)]
        if got != want:
            return f"orbit sizes {got}, expected {want}"
    return check


def enumerate_report(group: int, subgroup: int, sizes: list[int],
                     merges: dict[str, list[int]]) -> Check:
    """enumerate --json on one spec at one prime: exact |G|, |H|, points,
    orbit sizes, and per P_alpha the sorted sizes of its merge blocks."""
    def check(out: bytes):
        (rep,) = json.loads(out)["reports"]
        got = (rep["groupOrder"], rep["subgroupOrder"], rep["pointCount"])
        if got != (group, subgroup, sum(sizes)):
            return f"(|G|, |H|, points) = {got}, expected {(group, subgroup, sum(sizes))}"
        got_sizes = sorted(o["size"] for o in rep["orbits"])
        if got_sizes != sorted(sizes):
            return f"orbit sizes {got_sizes}, expected {sorted(sizes)}"
        for alpha, want in merges.items():
            blocks = sorted(len(b) for b in rep["merges"].get(alpha, []))
            if blocks != want:
                return f"P_{alpha} blocks of sizes {blocks}, expected {want}"
    return check


def point_counts(sizes: Callable[[int], list[int]]) -> Check:
    """Text enumerate over q = 5, 7: the aligned point counts."""
    def check(out: bytes):
        rows = re.findall(r"^pointCounts orbit \d+: q=5: (\d+), q=7: (\d+)$",
                          out.decode(), re.M)
        got = sorted((int(a), int(b)) for a, b in rows)
        want = sorted(zip(sizes(5), sizes(7)))
        if got != want:
            return f"point counts {got}, expected {want}"
    return check


def dot_graph(nodes: int, edges: int) -> Check:
    """export-dot: a digraph with one node line per orbit and one edge
    line per raise edge."""
    def check(out: bytes):
        lines = out.decode().splitlines()
        if lines[0] != "digraph orbit_datum {" or lines[-1] != "}":
            return "not a DOT digraph"
        got = (sum("[label=" in ln and "->" not in ln for ln in lines),
               sum("->" in ln for ln in lines))
        if got != (nodes, edges):
            return f"(nodes, edges) = {got}, expected {(nodes, edges)}"
    return check


def act_image(datum_path: Path, word: str, start: str) -> Check:
    """act: the image of start under the word, computed from the datum
    file by the benchmark's own cell involution when the check runs."""
    def check(out: bytes):
        obj = json.loads(datum_path.read_text())
        x = start
        for alpha in word.split("."):
            x = inputs.sigma(obj, int(alpha), x)
        if out.decode() != x + "\n":
            return f"act gave {out.decode().strip()!r}, expected {x!r}"
    return check


def bruhat_sizes(k: int, q: int) -> list[int]:
    """q^l(w) over w in S_k, l the number of inversions."""
    return [q ** sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))
            for p in itertools.permutations(range(k))]


# -- workloads ---------------------------------------------------------------

def _gen_flag(system: str, rng: random.Random, save_as: str) -> Command:
    dims = inputs.raise_dims(system, rng)
    return Command(f"gen-flag {system}",
                   ["gen-flag", system, "--raise-dims", ",".join(map(str, dims))],
                   check=flag_datum(system, dims), save_as=save_as)


def flag_pipeline(seed: int, work: Path, src: Path, setup, tiny: bool) -> Workload:
    """gen-flag -> validate -> braid -> hecke -> stabilizer -> act ->
    export-dot on F4, stabilizer on sl3_so12, and gen-flag -> validate
    on B5."""
    rng = random.Random(seed)
    big, second = ("A2", "B2") if tiny else ("F4", "B5")
    order = inputs.SYSTEMS[big][0]
    rank = sum(len(c) for c in inputs.SYSTEMS[big][1])
    word = ".".join(str(rng.randint(1, rank)) for _ in range(5))
    cmds = [
        _gen_flag(big, rng, "big.json"),
        Command(f"validate {big}", ["validate", "-"], stdin="big.json",
                check=text_is("OK\n"), digest=True),
        Command(f"braid {big}", ["braid", "big.json"],
                check=text_is("OK\n"), digest=True),
        Command(f"hecke {big}", ["hecke", "big.json"], check=has_lines(
            "involutions: OK", "leading terms match sigma: OK", "module braid: OK",
            f"regular representation: group {order}, images {order}, "
            f"span {order}: regular")),
        Command(f"stabilizer {big}", ["stabilizer", "big.json"], digest=True,
                check=has_lines("stabilizer order 1", "generator theorem: holds")),
        # Flag data have a trivial open-orbit stabilizer; this bundled datum
        # has one of order 6, so the subgroup closures run too.
        Command("stabilizer sl3_so12", ["stabilizer", "sl3_so12"], digest=True,
                check=has_lines("stabilizer order 6", "generator theorem: holds")),
        Command(f"act {big}", ["act", "big.json", word, "e"],
                check=act_image(work / "big.json", word, "e")),
        Command(f"export-dot {big}", ["export-dot", "big.json"],
                check=dot_graph(order, rank * order // 2)),
        _gen_flag(second, rng, "second.json"),
        Command(f"validate {second}", ["validate", "-"], stdin="second.json",
                check=text_is("OK\n"), digest=True),
    ]
    sizes = {f"|W({s})|": inputs.SYSTEMS[s][0] for s in (big, second)}
    return Workload(cmds, sizes=sizes)


def oracle_fields(seed: int, work: Path, src: Path, setup, tiny: bool) -> Workload:
    """Oracle compare and enumerate on specs conjugated by a seeded g."""
    rng = random.Random(seed)
    wl = Workload([])
    pair = (5, 7) if tiny else (11, 13)
    files = {}
    for q in pair:
        files[f"gl2_q{q}.json"] = inputs.conjugate_spec(inputs.bruhat_spec(2, q), q, rng)
    if not tiny:
        for q in (5, 7):
            bundled = json.loads((src / f"weylorb/data/oracle/product_diag_q{q}.json")
                                 .read_text())
            files[f"product_diag_q{q}.json"] = inputs.conjugate_spec(bundled, q, rng)
    torus_q = 7 if tiny else 23
    files[f"torus_q{torus_q}.json"] = inputs.conjugate_spec(
        inputs.torus_spec(torus_q), torus_q, rng)
    files["gl3_q3.json"] = inputs.conjugate_spec(inputs.bruhat_spec(3, 3), 3, rng)
    for name, obj in files.items():
        wl.inputs[name] = inputs.write_json(work / name, obj)

    q1, q2 = pair
    wl.commands += [
        # default raise dims: compare needs the spec's root system exactly
        Command("gen-flag A1", ["gen-flag", "A1"], check=flag_datum("A1", [1]),
                save_as="a1.json"),
        Command(f"compare gl2/B q={q1},{q2}",
                ["oracle", "compare", f"gl2_q{q1}.json", f"gl2_q{q2}.json", "a1.json",
                 "--q-list", f"{q1},{q2}", "--json"],
                check=compare_match([(1, 0), (0, 0)]), digest=True),
    ]
    if not tiny:
        wl.commands.append(Command(
            "compare product_diag q=5,7",
            ["oracle", "compare", "product_diag_q5.json", "product_diag_q7.json",
             "product_a1a1", "--q-list", "5,7", "--json"],
            check=compare_match([(2, 1), (1, 1)]), digest=True))
    q = torus_q
    wl.commands += [
        Command(f"enumerate torus q={q}",
                ["oracle", "enumerate", f"torus_q{q}.json", "--q-list", str(q), "--json"],
                check=enumerate_report(inputs.gl_order(2, q), (q - 1) ** 2,
                                       [q, q, q * (q - 1)], {"1": [3]})),
        Command("enumerate gl3/B q=3",
                ["oracle", "enumerate", "gl3_q3.json", "--q-list", "3", "--json"],
                check=enumerate_report(inputs.gl_order(3, 3), 2**3 * 3**3,
                                       bruhat_sizes(3, 3), {"1": [2, 2, 2], "2": [2, 2, 2]})),
    ]
    for qq in pair:
        wl.sizes[f"|G| gl2 q={qq}"] = inputs.gl_order(2, qq)
        wl.sizes[f"|H| gl2 q={qq}"] = qq * (qq - 1) ** 2
        wl.sizes[f"points gl2 q={qq}"] = qq + 1
    if not tiny:
        for qq in (5, 7):
            wl.sizes[f"|G| product_diag q={qq}"] = (qq * (qq * qq - 1)) ** 2
            wl.sizes[f"|H| product_diag q={qq}"] = qq * (qq * qq - 1)
            wl.sizes[f"points product_diag q={qq}"] = qq * (qq * qq - 1)
    wl.sizes[f"|G| torus q={q}"] = inputs.gl_order(2, q)
    wl.sizes[f"|H| torus q={q}"] = (q - 1) ** 2
    wl.sizes[f"points torus q={q}"] = q * (q + 1)
    wl.sizes["|G| gl3 q=3"] = inputs.gl_order(3, 3)
    wl.sizes["|H| gl3 q=3"] = 2**3 * 3**3
    wl.sizes["points gl3 q=3"] = sum(bruhat_sizes(3, 3))
    return wl


def cli_small(seed: int, work: Path, src: Path, setup, tiny: bool) -> Workload:
    """Many short commands on bundled data, small flag data, the small
    oracle specs, and seeded mutants that validate must reject."""
    rng = random.Random(seed)
    wl = Workload([])
    names = ("rank1_tu", "sl3_so12") if tiny else BUNDLED
    for name in names:
        obj = json.loads((src / f"weylorb/data/{name}.json").read_text())
        word, start, image = inputs.act_word(obj, rng)
        wl.commands += [
            Command(f"validate {name}", ["validate", name],
                    check=text_is("OK\n"), digest=True),
            Command(f"braid {name}", ["braid", name],
                    check=text_is("OK\n"), digest=True),
            Command(f"stabilizer {name}", ["stabilizer", name], digest=True,
                    check=has_lines("generator theorem: holds")),
            Command(f"hecke {name}", ["hecke", name], digest=True, check=has_lines(
                "involutions: OK", "leading terms match sigma: OK",
                "module braid: OK")),
            Command(f"export-dot {name}", ["export-dot", name], digest=True,
                    check=lambda out: None if out.startswith(b"digraph orbit_datum {\n")
                    else "not a DOT digraph"),
            Command(f"act {name}", ["act", name, word, start],
                    check=text_is(image + "\n")),
        ]
    systems = ("G2",) if tiny else ("A2", "B2", "G2", "BC2", "A1xA1")
    for system in systems:
        wl.commands.append(_gen_flag(system, rng, f"flag_{system}.json"))
    for spec in ("torus",) if tiny else tuple(BUNDLED_SPECS):
        wl.commands.append(Command(
            f"enumerate {spec}", ["oracle", "enumerate", spec, "--q-list", "5,7"],
            digest=True, check=point_counts(BUNDLED_SPECS[spec])))

    # Mutants alternate between flag data, made by the program itself in
    # an untimed set-up step, and bundled data with a non-A cell; every
    # mutation operation meets both sources.  The seed picks the cell and
    # member, not the source, so the work does not depend on it.
    flags = []
    for system in ("G2",) if tiny else ("B3", "G2"):
        dims = inputs.raise_dims(system, rng)
        text = setup(["gen-flag", system, "--raise-dims", ",".join(map(str, dims))])
        flags.append((f"flag {system}", json.loads(text)))
    bundled = [(name, json.loads((src / f"weylorb/data/{name}.json").read_text()))
               for name in names if name != "rank1_a"]
    for i in range(2 if tiny else 6):
        pool = bundled if i % 2 else flags
        label, obj = pool[i // 2 % len(pool)]
        op = inputs.MUTATION_OPS[i % 3]
        fname = f"mutant_{i}.json"
        wl.inputs[fname] = inputs.write_json(work / fname, inputs.mutate(obj, op, rng))
        wl.commands.append(Command(f"validate mutant {i} ({op} of {label})",
                                   ["validate", fname], code=1, check=rejected))
    for system in systems:
        wl.sizes[f"|W({system})|"] = inputs.SYSTEMS[system][0]
    return wl


WORKLOADS = {
    "flag-pipeline": flag_pipeline,
    "oracle-fields": oracle_fields,
    "cli-small": cli_small,
}
