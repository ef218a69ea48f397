"""Command-line front end.

Batch-oriented: every run is deterministic given its inputs, reports are
line-oriented text with a --json alternative, and exit codes are stable:
0 clean, 1 violations found, 2 usage or input errors.  A datum or oracle
spec argument is, in this order: "-" for stdin (a datum only, so commands
compose in pipelines), a file at that path, or a bundled name of its kind.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterator
from math import isqrt

# each layer executes on its first attribute access, so a command runs
# only the layers it uses
from . import (InputError, action, bundled, check_digits, clip, coxeter, datum, hecke, oracle,
               read_utf8)


#: The largest q a spec loads at, at dimension 1: past it, q^2 overflows 64 bits.
_MAX_Q = isqrt(2**63 - 1)
#: The digit screen of --cap and --raise-dims: no count comes near 2^63.
_MAX_INT = 2**63 - 1


class UsageError(InputError):
    """Bad arguments or unreadable input; maps to exit code 2."""


def _int_type(what: str, limit):
    """An argparse type: int(text), but a text with more digits than
    limit() is refused through check_digits, which names the count, not
    the digits; argparse words the refusal of any other bad text.  limit
    is called per value, so that building the parser runs no layer."""
    def convert(text: str) -> int:
        check_digits(text, limit(), UsageError, what)
        return int(text)
    convert.__name__ = "int"  # argparse's "invalid int value: 'x'"
    return convert


def _arg_text(arg: str, kind: str) -> str:
    """The text of a datum or oracle spec argument (kind "datum" or
    "oracle spec"), in the order the module docstring gives.  Every
    refusal names the argument as typed."""
    if arg == "-" and kind == "datum":
        return read_utf8(sys.stdin.buffer.read(), "stdin", UsageError)
    if os.path.exists(arg):
        with open(arg, "rb") as fh:
            return read_utf8(fh.read(), arg, UsageError)
    try:
        return bundled.text(kind, arg)
    except KeyError:
        raise UsageError(f"no such {kind} file or bundled name: {arg}") from None


def _int_list(text: str, sep: str, limit: int, what: str, bad: str) -> tuple[int, ...]:
    """The integers of text split at sep.  Every token is screened by
    check_digits, as a what past limit, before any is converted; a token
    int() refuses is refused with the text bad."""
    tokens = text.split(sep)
    for t in tokens:
        check_digits(t, limit, UsageError, what)
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise UsageError(bad) from None


def _parse_word(text: str, rank: int) -> tuple[int, ...]:
    if text == "e":
        return ()
    word = _int_list(text, ".", coxeter.MAX_RANK, "word letter",
                     f"bad word {clip(text)}; expected e or dotted indices like 1.2")
    for a in word:
        if not 1 <= a <= rank:
            raise UsageError(f"word letter {a} outside 1..{rank}")
    return word


def _parse_q_list(text: str) -> tuple[int, ...]:
    qs = _int_list(text, ",", _MAX_Q, "q-list entry",
                   f"bad q-list {clip(text)}; expected comma-separated primes")
    if len(set(qs)) != len(qs):
        raise UsageError(f"bad q-list {clip(text)}: a prime is repeated")
    return qs


def _json_body(obj) -> str:
    import json
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_gen_flag(args) -> tuple[int, str]:
    raise_dims = None
    if args.raise_dims is not None:
        raise_dims = _int_list(args.raise_dims, ",", _MAX_INT, "raise-dims entry",
                               f"bad raise-dims {clip(args.raise_dims)}")
    rs = coxeter.build_root_system(args.family, args.rank, raise_dims=raise_dims)
    return 0, datum.dumps(datum.generate_flag_datum(rs))


def _cmd_validate(args) -> tuple[int, str]:
    d = datum.loads(_arg_text(args.datum, "datum"))
    structure = datum.validate(d)
    lattices = datum.check_lattices(d)
    ok = structure.ok and lattices.ok
    if args.json:
        return (0 if ok else 1), _json_body({
            "ok": ok,
            "structure": structure.to_json(),
            "lattices": lattices.to_json(),
        })
    report = datum.ValidationReport(structure.violations + lattices.violations)
    return (0 if ok else 1), "\n".join(report.lines()) + "\n"


def _cmd_act(args) -> tuple[int, str]:
    d = datum.loads(_arg_text(args.datum, "datum"))
    word = _parse_word(args.word, d.root_system.rank)
    result = action.act_word(d, word, args.orbit)
    if args.json:
        return 0, _json_body({"word": args.word, "start": args.orbit,
                              "result": result})
    return 0, result + "\n"


def _cmd_braid(args) -> tuple[int, str]:
    violations = action.braid_check(datum.loads(_arg_text(args.datum, "datum")))
    if args.json:
        return (1 if violations else 0), _json_body({
            "ok": not violations,
            "violations": [v._asdict() for v in violations],
        })
    if not violations:
        return 0, "OK\n"
    return 1, "\n".join(v.line() for v in violations) + "\n"


def _cmd_stabilizer(args) -> tuple[int, str]:
    d = datum.loads(_arg_text(args.datum, "datum"))
    try:
        theorem = action.check_generator_theorem(d)
    except action.BraidObstruction as exc:
        return 1, (_json_body({"ok": False, "obstruction": str(exc)}) if args.json
                   else f"VIOLATION {exc}\n")
    desc = theorem.stabilizer
    gen_names = sorted(map(coxeter.word_name, theorem.generating_set))
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
                    f"of {desc.order})"))
    lines.append("generating set: " + (", ".join(gen_names) or "(empty)"))
    return (0 if theorem.holds else 1), "\n".join(lines) + "\n"


def _cmd_hecke(args) -> tuple[int, Iterator[str]]:
    report = hecke.check_module(datum.loads(_arg_text(args.datum, "datum")))
    # the columns are rendered as main writes them, one operator at a time
    return (0 if report.ok else 1), report.render_json() if args.json else report.render_text()


def _cmd_export_dot(args) -> tuple[int, str]:
    return 0, datum.export_dot(datum.loads(_arg_text(args.datum, "datum")))


def _oracle_specs(paths: list[str], qs: tuple[int, ...], cap: int):
    """Pair every spec with its applicable primes and enumerate."""
    import json  # only commands that parse or print JSON pay for it
    reports = []
    for arg in paths:
        try:  # read_utf8's UsageError is not a ValueError
            obj = json.loads(_arg_text(arg, "oracle spec"))
        except ValueError as exc:  # a JSONDecodeError, or an integer past 4,300 digits
            raise UsageError(str(exc)) from exc
        pinned = oracle.pinned_q(obj)
        if pinned not in (None, *qs):
            raise UsageError(f"spec {arg} is pinned to q = {clip(pinned)}, not in the q-list")
        for q in qs if pinned is None else (pinned,):
            reports.append(oracle.enumerate_orbits(oracle.spec_from_obj(obj, q), cap=cap))
    reports.sort(key=lambda r: (r.spec_name, r.q))
    return reports


def _cmd_oracle(args) -> tuple[int, str]:
    qs = oracle.DEFAULT_Q_LIST if args.q_list is None else _parse_q_list(args.q_list)
    cap = oracle.DEFAULT_POINT_CAP if args.cap is None else args.cap
    if cap < 1:
        raise UsageError("--cap must be >= 1")
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
            except oracle.OracleError as exc:  # the reports stand; the counts do not
                print(f"note: pointCounts left out: {exc}", file=sys.stderr)
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
                pairs = ", ".join(f"q={q}: {counts[q]}" for q in sorted(counts, key=int))
                lines.append(f"pointCounts orbit {i}: {pairs}")
        return 0, "\n".join(lines) + "\n"

    if args.mode == "infer":
        reports = _oracle_specs(args.paths, qs, cap)
        rs = coxeter.build_root_system(reports[0].root_system)
        return 0, _json_body(oracle.infer_datum(reports, rs).to_obj())

    # compare: argparse's choices leave no other mode
    if len(args.paths) < 2:
        raise UsageError("compare needs oracle spec(s) followed by a datum")
    reference = datum.loads(_arg_text(args.paths[-1], "datum"))
    reports = _oracle_specs(args.paths[:-1], qs, cap)
    inferred = oracle.infer_datum(reports, reference.root_system)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylorb",
        description="Exact engine for minimal-parabolic orbit data: "
                    "flag data, validation, braid and stabilizer checks, "
                    "mod-2 Hecke modules, and a finite-field oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-flag", help="write the full flag datum of a root system")
    p.add_argument("family", help="family token like A, B2 or A1xA1")
    p.add_argument("rank", nargs="?", default=None,
                   type=_int_type("rank", lambda: coxeter.MAX_RANK))
    p.add_argument("--raise-dims", default=None,
                   help="comma-separated raise dimension per simple root")
    p.set_defaults(func=_cmd_gen_flag)

    p = sub.add_parser("validate", help="structure and lattice checks")
    p.add_argument("datum", nargs="?", default="-")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("act", help="apply a word in the maps sigma_alpha to an orbit")
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
    p.add_argument("--cap", type=_int_type("--cap", lambda: _MAX_INT), default=None)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, body = args.func(args)
        pieces = (body,) if isinstance(body, str) else body  # a str, or its pieces
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
    except (InputError, OSError) as exc:  # bad input or arguments: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.writelines(pieces)
    return code


def entry() -> None:
    """Process entry of ``python -m weylorb.cli`` and the ``weylorb`` script.

    Runs :func:`main` with the cyclic garbage collector off, and freezes
    the heap before the interpreter's teardown, whose collections would
    otherwise walk every object the command made just before the OS frees
    them all.  A command's objects die by reference counting; what cycles
    it leaves last only until the process exits.  ``--help`` and argparse
    refusals leave through SystemExit, so the freeze is in a ``finally``.
    Teardown itself still runs, atexit handlers and profilers included.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
