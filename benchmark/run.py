"""weylorb benchmark: real CLI processes, one at a time, checked.

    python3 benchmark/run.py --workload flag-pipeline --seed 1 --seconds 50 --trace 0

Each workload is a fixed sequence of ``python -m weylorb.cli`` commands on
inputs made from ``--seed``.  The commands run in a closed loop with a
single client: the next starts only after the previous one has exited,
so load never exceeds one core.  The sequence repeats as often as fits
in ``--seconds``, at least once; every output is checked.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json, medians over the repetitions.  With ``--trace 1`` each
repetition runs once plain and once through ``shim.py``, which wraps the
public functions of every layer, and the last line reports the per-layer
metrics.  Human-readable lines (seed, input digests, environment, input
sizes, every metric with its unit, failures) come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SHIM = HERE / "shim.py"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 3        # no-op CLI processes before measuring, for setup_s,
                        # and again spread over each plain repetition
TIME_LIMIT = 170.0      # seconds a whole run may take
MIN_REPETITIONS = 2     # plain repetitions per untraced run


class SetupError(RuntimeError):
    """The benchmark cannot run here: program missing or set-up failed."""


@dataclass
class Result:
    wall: float
    cpu: float
    rss_kib: int
    code: int
    stdout: bytes
    stderr: str
    problem: str | None = None


class Runner:
    """Runs CLI commands in a work directory and checks their output."""

    def __init__(self, work: Path, deadline: float):
        if not (SRC / "weylorb" / "cli.py").is_file():
            raise SetupError(f"no weylorb source tree at {SRC}")
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.expected = json.loads(EXPECTED.read_text())
        self.seq = 0

    def spawn(self, argv: list[str], stdin: str | None = None,
              save_as: str | None = None) -> Result:
        """Run one process to completion; wall time, and CPU time and max
        RSS from the child's own rusage."""
        self.seq += 1
        out_path = self.work / (save_as or f"out_{self.seq}.txt")
        err_path = self.work / f"err_{self.seq}.txt"
        stdin_file = open(self.work / stdin, "rb") if stdin else subprocess.DEVNULL
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, stdin=stdin_file, stdout=out,
                                        stderr=err, cwd=self.work, env=self.env)
                killer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                         proc.kill)
                killer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    killer.cancel()
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdin:
                stdin_file.close()
        res = Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                     proc.returncode, out_path.read_bytes(),
                     err_path.read_text(errors="replace").strip()[-300:])
        err_path.unlink()
        if not save_as:
            out_path.unlink()
        return res

    def run(self, cmd: Command, trace_out: Path | None = None) -> Result:
        prefix = ([sys.executable, str(SHIM), str(trace_out)] if trace_out
                  else [sys.executable, "-m", "weylorb.cli"])
        res = self.spawn(prefix + cmd.argv, cmd.stdin, cmd.save_as)
        res.problem = self.verify(cmd, res)
        return res

    def verify(self, cmd: Command, res: Result) -> str | None:
        if res.code != cmd.code:
            return f"exit code {res.code}, expected {cmd.code}: {res.stderr}"
        if cmd.digest:
            want = self.expected.get(cmd.id)
            got = inputs.digest(res.stdout)
            if got != want:
                return f"stdout digest {got[:16]}, expected {str(want)[:16]}"
        if cmd.check is not None:
            try:
                return cmd.check(res.stdout)
            except Exception as exc:  # a garbled output is a failed check
                return f"check raised {exc!r}"
        return None

    def setup(self, argv: list[str]) -> str:
        """Untimed set-up command; its failure stops the run."""
        res = self.spawn([sys.executable, "-m", "weylorb.cli"] + argv)
        if res.code != 0:
            raise SetupError(f"set-up command {argv} failed: {res.stderr}")
        return res.stdout.decode()


@dataclass
class Iteration:
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_kib: int = 0
    attempted: int = 0
    failed: int = 0
    setup_walls: list = field(default_factory=list)
    layers: dict | None = None


def probe_setup(runner: Runner, it: Iteration, failures: list[str]) -> None:
    """One no-op CLI process: interpreter start plus importing every
    layer and numpy, the cost every command pays."""
    res = runner.spawn([sys.executable, "-m", "weylorb.cli", "--help"])
    it.setup_walls.append(res.wall)
    it.attempted += 1
    if res.code != 0 or not res.stdout.startswith(b"usage: weylorb"):
        it.failed += 1
        failures.append(f"--help: exit {res.code}, {res.stdout[:60]!r}")


def run_iteration(runner: Runner, wl: Workload, traced: bool,
                  failures: list[str]) -> Iteration:
    """One repetition of the workload.  A plain repetition also spreads
    SETUP_PROBES no-op processes over its commands; they are not part of
    its wall or CPU time."""
    it = Iteration(layers={} if traced else None)
    trace_out = runner.work / "trace.json" if traced else None
    n = len(wl.commands)
    probe_at = set() if traced else {j * n // SETUP_PROBES for j in range(SETUP_PROBES)}
    for i, cmd in enumerate(wl.commands):
        if i in probe_at:
            probe_setup(runner, it, failures)
        res = runner.run(cmd, trace_out)
        it.wall += res.wall
        it.cpu += res.cpu
        it.peak_rss_kib = max(it.peak_rss_kib, res.rss_kib)
        it.attempted += 1
        if res.problem is not None:
            it.failed += 1
            failures.append(f"{cmd.id}: {res.problem}")
        if traced and trace_out.exists():
            per_cmd = layers.command_metrics(json.loads(trace_out.read_text()),
                                             res.wall, len(res.stdout))
            trace_out.unlink()
            for key, value in per_cmd.items():
                it.layers[key] = it.layers.get(key, 0.0) + value
    return it


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(runner: Runner) -> dict:
    probe = ("import json, sys, numpy, weylorb; print(json.dumps({"
             "'weylorb': weylorb.__file__, 'python': sys.version.split()[0], "
             "'numpy': numpy.__version__}))")
    res = runner.spawn([sys.executable, "-c", probe])
    if res.code != 0:
        raise SetupError(f"cannot import weylorb and numpy: {res.stderr}")
    env = json.loads(res.stdout)
    env["git_sha"] = git_sha()
    env["nproc"] = len(os.sched_getaffinity(0))
    env["src_lines"] = sum(len(p.read_text().splitlines())
                           for p in sorted((SRC / "weylorb").rglob("*.py")))
    return env


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 work: Path, tiny: bool = False, log=print) -> dict:
    """Build the workload, measure it and return the result object."""
    started = time.monotonic()
    runner = Runner(work, started + TIME_LIMIT)
    bench = spec()
    env = environment(runner)
    wl = WORKLOADS[name](seed, work, SRC, runner.setup, tiny)
    failures: list[str] = []

    warm = Iteration()
    if not traced:
        for _ in range(SETUP_PROBES):
            probe_setup(runner, warm, failures)

    # Repeat while the next repetition, judged by the last one, still ends
    # within `seconds`.  An untraced run makes at least MIN_REPETITIONS:
    # on a shared host one repetition of ~25 s is too short a window to
    # average out drift in machine speed.
    plain, traced_its = [], []
    t0 = time.monotonic()
    while True:
        rep_start = time.monotonic()
        plain.append(run_iteration(runner, wl, False, failures))
        if traced:
            traced_its.append(run_iteration(runner, wl, True, failures))
        now = time.monotonic()
        if now >= runner.deadline:
            break
        if (traced or len(plain) >= MIN_REPETITIONS) and 2 * now - rep_start - t0 > seconds:
            break
    runs = [warm] + plain + traced_its
    attempted = sum(it.attempted for it in runs)
    failed = sum(it.failed for it in runs)
    setup_walls = [w for it in runs for w in it.setup_walls]

    log(f"workload {name} seed {seed} seconds {seconds} trace {int(traced)}")
    log(f"program weylorb.__file__ = {env['weylorb']}")
    log("env " + " ".join(f"{k}={env[k]}" for k in
                          ("git_sha", "python", "numpy", "nproc", "src_lines")))
    for fname, sha in sorted(wl.inputs.items()):
        log(f"input {fname} sha256 {sha}")
    for cmd in wl.commands:
        stdin = f" < {cmd.stdin}" if cmd.stdin else ""
        log(f"command {cmd.id}: weylorb {' '.join(cmd.argv)}{stdin}")
    for key, value in wl.sizes.items():
        log(f"size {key} = {value}")
    log(f"size commands = {len(wl.commands)} per repetition, "
        f"{len(plain)} repetition(s)")

    median = statistics.median
    e2e = {
        "wall_s": median(it.wall for it in plain),
        "cpu_s": median(it.cpu for it in plain),
        "peak_rss_mib": median(it.peak_rss_kib / 1024 for it in plain),
        "setup_s": median(setup_walls) if setup_walls else None,
    }
    if traced:
        per_layer = {}
        keys = set().union(*(it.layers for it in traced_its))
        for key in keys:
            per_layer[key] = median(it.layers.get(key, 0.0) for it in traced_its)
        per_layer = layers.add_derived(per_layer)
        per_layer["trace.wall_s"] = median(it.wall for it in traced_its)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - e2e["wall_s"]
        log(f"untraced wall_s = {e2e['wall_s']:.4f} s")
        values, wanted = per_layer, bench["per_layer"]
    else:
        values, wanted = e2e, bench["end_to_end"]

    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"metric {m['name']} = {value:.6g} {m['unit']}")
    log(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} commands)")
    for line in failures:
        log(f"FAILED {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception so the running child is killed
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), work)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
