"""Which public functions the traced run wraps, and how the spans and
counts they record add up to the per-layer metrics.

A *span* function records (name, start, end, parent) per call.  A
*tally* function is called ~10^5 times per command, so it only adds to a
call count and a total time; its time is still subtracted from the self
time of the enclosing span.  Self time is a span's duration minus the
time covered by its wrapped children.
"""

from __future__ import annotations

from collections import defaultdict

SPAN, TALLY = "span", "tally"

#: (module, attribute path, kind).  The metric prefix is
#: "<module>.<attribute path>", with WeylElement.__mul__ named "mul".
TARGETS = [
    ("coxeter", "enumerate_group", SPAN),
    ("coxeter", "subgroup_closure", SPAN),
    ("coxeter", "reflections", SPAN),
    ("coxeter", "WeylElement.inverse", TALLY),
    ("coxeter", "WeylElement.__mul__", TALLY),
    ("datum", "generate_flag_datum", SPAN),
    ("datum", "dumps", SPAN),
    ("datum", "loads", SPAN),
    ("datum", "validate", SPAN),
    ("datum", "check_lattices", SPAN),
    ("datum", "export_dot", SPAN),
    ("datum", "OrbitDatum.sigma", TALLY),
    ("action", "braid_check", SPAN),
    ("action", "action_table", SPAN),
    ("action", "stabilizer_open", SPAN),
    ("action", "check_generator_theorem", SPAN),
    ("action", "act_word", SPAN),
    ("hecke", "build_module", SPAN),
    ("hecke", "apply", TALLY),
    ("hecke", "HeckeModule.terms", TALLY),
    ("hecke", "leading_term", TALLY),
    ("hecke", "braid_check_module", SPAN),
    ("hecke", "verify_regular_representation", SPAN),
    ("oracle", "spec_from_obj", SPAN),
    ("oracle", "enumerate_orbits", SPAN),
    ("oracle", "align_reports", SPAN),
    ("oracle", "infer_datum", SPAN),
    ("oracle", "compare", SPAN),
    ("cli", "main", SPAN),
]


def metric_prefix(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__mul__', 'mul')}"


def result_counts(name: str, args: tuple, result, seen_keys: set) -> dict:
    """Work counts read off a wrapped call's arguments and result."""
    if name == "coxeter.enumerate_group":
        key = args[0].key
        if key in seen_keys:
            return {}
        seen_keys.add(key)
        return {"coxeter.enumerate_group.cold_calls": 1,
                "coxeter.group_order": len(result)}
    if name == "coxeter.subgroup_closure":
        return {"coxeter.subgroup_closure.elements": len(result)}
    if name in ("datum.loads", "datum.generate_flag_datum"):
        return {"datum.orbits": len(result.orbits)}
    if name == "oracle.enumerate_orbits":
        return {"oracle.group_elements": result.group_order,
                "oracle.subgroup_elements": result.subgroup_order,
                "oracle.points": result.point_count,
                "oracle.orbits": result.orbit_count}
    return {}


def command_metrics(trace: dict, wall: float, stdout_bytes: int) -> dict:
    """Per-layer totals of one traced command.

    ``trace`` is what the shim wrote: import time, spans as
    [name, start, end, parent index, child time], tallies as
    {name: [calls, seconds]} and result counts.
    """
    out: dict[str, float] = defaultdict(float)
    spans = trace["spans"]
    for name, start, end, parent, child in spans:
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # outermost call of this name: inclusive time
            out[f"{name}.s"] += dur
    for name, (calls, seconds) in trace["tallies"].items():
        out[f"{name}.calls"] += calls
        out[f"{name}.s"] += seconds
    for name, value in trace["counts"].items():
        out[name] += value
    out["cli.import_s"] += trace["import_s"]
    out["cli.stdout_bytes"] += stdout_bytes
    out["cli.process_overhead_s"] += wall - trace["import_s"] - out["cli.main.s"]
    return out


def add_derived(totals: dict) -> dict:
    t = defaultdict(float, totals)
    t["oracle.points_per_s"] = (t["oracle.points"] / t["oracle.enumerate_orbits.s"]
                                if t["oracle.enumerate_orbits.s"] else 0.0)
    return t
