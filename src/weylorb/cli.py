"""Command-line front end.

Batch-oriented: every run is deterministic given its inputs, reports are
line-oriented text with a --json alternative, and exit codes are stable:
0 clean, 1 violations found, 2 usage or input errors.  Datum arguments
accept a file path, a bundled datum name, or "-" for stdin, so commands
compose in pipelines.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
from pathlib import Path

# action, bundled, hecke and oracle execute on first attribute access
from . import action, bundled, hecke, oracle
from .coxeter import CapExceeded, RootSystemError, build_root_system, word_name
from .datum import (
    DatumFormatError,
    OrbitDatum,
    check_lattices,
    dumps,
    export_dot,
    generate_flag_datum,
    load_path,
    loads,
    validate,
)


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


def _load_datum(arg: str) -> OrbitDatum:
    if arg == "-":
        return loads(sys.stdin.read())
    path = Path(arg)
    if path.exists():
        return load_path(path)
    if arg in bundled.DATUM_NAMES:
        return bundled.bundled_datum(arg)
    raise UsageError(f"no such datum file or bundled name: {arg}")


def _load_spec_obj(arg: str) -> dict:
    path = Path(arg)
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    if arg in bundled.ORACLE_SPEC_NAMES:
        return json.loads(bundled.oracle_spec_text(arg))
    raise UsageError(f"no such oracle spec file or bundled name: {arg}")


def _parse_word(text: str, rank: int) -> tuple[int, ...]:
    if text == "e":
        return ()
    try:
        word = tuple(int(t) for t in text.split("."))
    except ValueError:
        raise UsageError(f"bad word {text!r}; expected e or dotted indices like 1.2")
    for a in word:
        if not 1 <= a <= rank:
            raise UsageError(f"word letter {a} outside 1..{rank}")
    return word


def _parse_q_list(text: str) -> tuple[int, ...]:
    try:
        qs = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"bad q-list {text!r}; expected comma-separated primes")
    if not qs:
        raise UsageError("empty q-list")
    return qs


def _json_body(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_gen_flag(args) -> tuple[int, str]:
    raise_dims = None
    if args.raise_dims:
        try:
            raise_dims = [int(t) for t in args.raise_dims.split(",")]
        except ValueError:
            raise UsageError(f"bad raise-dims {args.raise_dims!r}")
    rs = build_root_system(args.family, args.rank, raise_dims=raise_dims)
    return 0, dumps(generate_flag_datum(rs))


def _cmd_validate(args) -> tuple[int, str]:
    d = _load_datum(args.datum)
    structure = validate(d)
    lattices = check_lattices(d)
    ok = structure.ok and lattices.ok
    if args.json:
        return (0 if ok else 1), _json_body({
            "ok": ok,
            "structure": structure.to_json(),
            "lattices": lattices.to_json(),
        })
    lines = []
    if ok:
        lines.append("OK")
    else:
        lines.extend(v.line() for v in structure.violations)
        lines.extend(v.line() for v in lattices.violations)
    return (0 if ok else 1), "\n".join(lines) + "\n"


def _cmd_act(args) -> tuple[int, str]:
    d = _load_datum(args.datum)
    word = _parse_word(args.word, d.root_system.rank)
    if args.orbit not in d.orbit_ids():
        raise UsageError(f"no orbit {args.orbit!r} in the datum")
    result = action.act_word(d, word, args.orbit)
    if args.json:
        return 0, _json_body({"word": args.word, "start": args.orbit,
                              "result": result})
    return 0, result + "\n"


def _obstruction(args, exc: Exception) -> str:
    if args.json:
        return _json_body({"ok": False, "obstruction": str(exc)})
    return f"VIOLATION {exc}\n"


def _cmd_braid(args) -> tuple[int, str]:
    d = _load_datum(args.datum)
    try:
        violations = action.braid_check(d)
    except action.BraidObstruction as exc:
        return 1, _obstruction(args, exc)
    if args.json:
        return (1 if violations else 0), _json_body({
            "ok": not violations,
            "violations": [v._asdict() for v in violations],
        })
    if not violations:
        return 0, "OK\n"
    return 1, "\n".join(v.line() for v in violations) + "\n"


def _cmd_stabilizer(args) -> tuple[int, str]:
    d = _load_datum(args.datum)
    try:
        theorem = action.check_generator_theorem(d)
    except action.BraidObstruction as exc:
        return 1, _obstruction(args, exc)
    desc = theorem.stabilizer
    gen_names = sorted(word_name(w.word) for w in theorem.generating_set)
    if args.json:
        return (0 if theorem.holds else 1), _json_body({
            "order": desc.order,
            "elements": desc.element_names(),
            "generator_theorem": theorem.holds,
            "generating_set": gen_names,
        })
    lines = [f"stabilizer order {desc.order}"]
    lines.extend(f"element {name}" for name in desc.element_names())
    lines.append("generator theorem: "
                 + ("holds" if theorem.holds else
                    f"FAILS (generated {theorem.generated_order} "
                    f"of {theorem.stabilizer_order})"))
    lines.append("generating set: " + (", ".join(gen_names) or "(empty)"))
    return (0 if theorem.holds else 1), "\n".join(lines) + "\n"


def _cmd_hecke(args) -> tuple[int, str]:
    d = _load_datum(args.datum)
    module = hecke.build_module(d)
    problems: list[str] = []

    involutions_ok = lead_ok = True
    for alpha, col in sorted(module.columns.items()):
        for i, oid in enumerate(module.basis):
            if hecke.apply(module, alpha, col[i]) != 1 << i:
                problems.append(f"T_{alpha} is not an involution at [{oid}]")
                involutions_ok = False
    dims = [o.dim for o in d.orbits]  # the basis is d.orbit_ids()
    for alpha in sorted(module.columns):
        sigma = d.involutions[alpha]
        for i, oid in enumerate(module.basis):
            try:
                lead = hecke.leading_position(module, alpha, i, dims.__getitem__)
            except hecke.HeckeError as exc:
                problems.append(str(exc))
                lead_ok = False
                continue
            if lead != sigma[i]:  # None, uncovered: d.sigma raises below
                problems.append(
                    f"leading term of T_{alpha}[{oid}] is [{module.basis[lead]}], "
                    f"sigma gives [{d.sigma(alpha, oid)}]")
                lead_ok = False

    # the regular-representation check runs the module braid check itself
    regular = (hecke.verify_regular_representation(module) if "e" in module.basis
               else None)
    braid_violations = (regular.braid_violations if regular
                        else hecke.braid_check_module(module))
    problems.extend(v.line() for v in braid_violations)
    if regular and not regular.ok:
        problems.append("regular representation check failed")

    columns = {str(alpha): {oid: module.terms(col[i]) for i, oid in enumerate(module.basis)}
               for alpha, col in sorted(module.columns.items())}
    ok = not problems
    if args.json:
        return (0 if ok else 1), _json_body({
            "ok": ok,
            "basis": list(module.basis),
            "columns": columns,
            "involutions": involutions_ok,
            "leading_terms_match_sigma": lead_ok,
            "module_braid_ok": not braid_violations,
            "regular_representation": None if regular is None else {
                "ok": regular.ok,
                "group_order": regular.group_order,
                "distinct_images": regular.distinct_images,
                "span_dimension": regular.span_dimension,
            },
            "problems": problems,
        })
    lines = ["basis: " + " ".join(module.basis)]
    for alpha, images in columns.items():
        lines.extend(f"T_{alpha}[{oid}] = " + " + ".join(terms)
                     for oid, terms in images.items())
    lines.append("involutions: " + ("OK" if involutions_ok else "FAIL"))
    lines.append("leading terms match sigma: " + ("OK" if lead_ok else "FAIL"))
    lines.append("module braid: " + ("OK" if not braid_violations else "FAIL"))
    if regular is None:
        lines.append("regular representation: skipped (no identity orbit)")
    else:
        lines.append(
            f"regular representation: group {regular.group_order}, "
            f"images {regular.distinct_images}, span {regular.span_dimension}: "
            + ("regular" if regular.ok else "NOT regular"))
    lines.extend("PROBLEM " + p for p in problems)
    return (0 if ok else 1), "\n".join(lines) + "\n"


def _cmd_export_dot(args) -> tuple[int, str]:
    return 0, export_dot(_load_datum(args.datum))


def _oracle_specs(paths: list[str], qs: tuple[int, ...], cap: int):
    """Pair every spec with its applicable primes and enumerate."""
    reports = []
    for arg in paths:
        obj = _load_spec_obj(arg)
        pinned = obj.get("q")
        if pinned is not None:
            if int(pinned) not in qs:
                raise UsageError(
                    f"spec {arg} is pinned to q = {pinned}, not in the q-list")
            run_qs = [int(pinned)]
        else:
            run_qs = list(qs)
        for q in run_qs:
            reports.append(oracle.enumerate_orbits(oracle.spec_from_obj(obj, q), cap=cap))
    reports.sort(key=lambda r: (r.spec_name, r.q))
    return reports


def _cmd_oracle(args) -> tuple[int, str]:
    qs = oracle.DEFAULT_Q_LIST if args.q_list is None else _parse_q_list(args.q_list)
    cap = oracle.DEFAULT_POINT_CAP if args.cap is None else args.cap
    if args.mode == "enumerate":
        reports = _oracle_specs(args.paths, qs, cap)
        aligned_counts = None
        if len({r.q for r in reports}) > 1 and len({r.spec_name
                                                    for r in reports}) == 1:
            try:
                aligned = oracle.align_reports(reports)
                aligned_counts = [
                    {str(r.q): r.orbits[i].size for r in aligned}
                    for i in range(aligned[0].orbit_count)]
            except oracle.OracleError:
                aligned_counts = None
        if args.json:
            return 0, _json_body({
                "reports": [r.to_obj() for r in reports],
                "pointCounts": aligned_counts,
            })
        lines = []
        for r in reports:
            lines.extend(r.lines())
        if aligned_counts is not None:
            for i, counts in enumerate(aligned_counts):
                pairs = ", ".join(f"q={q}: {counts[q]}" for q in sorted(counts))
                lines.append(f"pointCounts orbit {i}: {pairs}")
        return 0, "\n".join(lines) + "\n"

    if args.mode == "infer":
        reports = _oracle_specs(args.paths, qs, cap)
        rs = build_root_system(reports[0].root_system)
        inferred = oracle.infer_datum(reports, rs)
        code = 0 if inferred.datum is not None else 1
        return code, _json_body(inferred.to_obj())

    if args.mode == "compare":
        if len(args.paths) < 2:
            raise UsageError("compare needs oracle spec(s) followed by a datum")
        reference = _load_datum(args.paths[-1])
        reports = _oracle_specs(args.paths[:-1], qs, cap)
        inferred = oracle.infer_datum(reports, reference.root_system)
        if inferred.datum is None:
            return 1, "\n".join(inferred.notes) + "\n"
        result = oracle.compare(reference, inferred.datum, inferred.fits)
        if args.json:
            return (0 if result.match else 1), _json_body({
                "match": result.match,
                "lines": list(result.lines),
                "confidence": list(inferred.notes),
            })
        if result.match:
            return 0, "match\n"
        return 1, "\n".join(result.lines) + "\n"

    raise UsageError(f"unknown oracle mode {args.mode!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylorb",
        description="Exact engine for minimal-parabolic orbit data: "
                    "flag data, validation, braid and stabilizer checks, "
                    "mod-2 Hecke modules, and a finite-field oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-flag", help="write the full flag datum of a root system")
    p.add_argument("family", help="family token like A, B2 or A1xA1")
    p.add_argument("rank", nargs="?", type=int, default=None)
    p.add_argument("--raise-dims", default=None,
                   help="comma-separated raise dimension per simple root")
    p.set_defaults(func=_cmd_gen_flag)

    p = sub.add_parser("validate", help="structure and lattice checks")
    p.add_argument("datum", nargs="?", default="-")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("act", help="apply a word in the sigma involutions")
    p.add_argument("datum")
    p.add_argument("word", help="e or dotted 1-based indices like 1.2.1")
    p.add_argument("orbit")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("braid", help="check the braid relations of the action")
    p.add_argument("datum", nargs="?", default="-")
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("stabilizer",
                       help="stabilizer of the open orbit and generator theorem")
    p.add_argument("datum", nargs="?", default="-")
    p.set_defaults(func=_cmd_stabilizer)

    p = sub.add_parser("hecke", help="build and check the mod-2 Hecke module")
    p.add_argument("datum", nargs="?", default="-")
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("oracle", help="finite-field brute-force checks")
    p.add_argument("mode", choices=["enumerate", "infer", "compare"])
    p.add_argument("paths", nargs="+",
                   help="oracle spec files; for compare, the last "
                        "argument is the datum to compare against")
    # defaults resolved in _cmd_oracle, so that building the parser
    # does not execute the oracle
    p.add_argument("--q-list", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export-dot", help="raise structure as a DOT graph")
    p.add_argument("datum", nargs="?", default="-")
    p.set_defaults(func=_cmd_export_dot)

    # appended last, so every subcommand's own arguments keep their order
    for name, p in sub.choices.items():
        if name not in ("gen-flag", "export-dot"):
            p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)
    return parser


def _input_errors() -> tuple[type[Exception], ...]:
    """Exceptions that mean bad input or arguments (exit code 2).

    OracleError and HeckeError are named only once their layer has run: a
    layer still lazy cannot have raised, and naming its class would run it.
    """
    errors = [UsageError, DatumFormatError, RootSystemError, CapExceeded,
              OSError, json.JSONDecodeError]
    for module, name in ((oracle, "OracleError"), (hecke, "HeckeError")):
        if type(module) is types.ModuleType:
            errors.append(getattr(module, name))
    return tuple(errors)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, body = args.func(args)
        if args.out:
            Path(args.out).write_text(body, encoding="utf-8")
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(body)
    return code


if __name__ == "__main__":
    sys.exit(main())
