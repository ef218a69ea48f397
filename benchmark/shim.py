"""Run one weylorb command with its public layer functions wrapped.

Usage: python shim.py TRACE_OUT [weylorb arguments...]

Times ``import weylorb.cli``, wraps every function in layers.TARGETS in
its defining module and wherever another weylorb module imported it by
name, calls ``weylorb.cli.main`` and, at exit, writes the spans, tallies
and counts to TRACE_OUT as JSON.  Stdout and the exit code are those of
the command.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import layers

perf = time.perf_counter

spans: list[list] = []       # [name, start, end, parent index, child time]
stack: list[int] = []        # indices of the open spans
tallies: dict[str, list] = {}
counts: dict[str, int] = defaultdict(int)
seen_keys: set = set()
tally_depth = [0]


def span_wrapper(name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        rec = [name, perf(), 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(spans))
        spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf()
            stack.pop()
            if stack:
                spans[stack[-1]][4] += rec[2] - rec[1]
        for key, value in layers.result_counts(name, args, result, seen_keys).items():
            counts[key] += value
        return result
    return wrapped


def tally_wrapper(name, fn):
    rec = tallies.setdefault(name, [0, 0.0])

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tally_depth[0] += 1
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf() - t0
            tally_depth[0] -= 1
            rec[0] += 1
            rec[1] += dt
            if not tally_depth[0] and stack:
                spans[stack[-1]][4] += dt
    return wrapped


def install() -> None:
    modules = [m for n, m in sys.modules.items()
               if n == "weylorb" or n.startswith("weylorb.")]
    for module, attr, kind in layers.TARGETS:
        name = layers.metric_prefix(module, attr)
        make = span_wrapper if kind == layers.SPAN else tally_wrapper
        owner = sys.modules[f"weylorb.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, make(name, cls.__dict__[method]))
            continue
        original = getattr(owner, attr)
        wrapped = make(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf()
    import weylorb.cli
    import_s = perf() - t0
    install()
    try:
        code = weylorb.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": spans, "tallies": tallies,
                       "counts": counts}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
