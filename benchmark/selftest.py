"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q benchmark/selftest.py

Every workload must pass all its checks on the current code, report
exactly the metric names of BENCHMARK.json, and count a corrupted output
as a failure.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def quiet(*_args) -> None:
    pass


def tiny_run(name: str, tmp_path: Path, seed: int = 1, traced: bool = False) -> dict:
    work = tmp_path / f"{name}-{seed}-{int(traced)}"
    work.mkdir()
    return run.run_workload(name, seed, 0, traced, work, tiny=True, log=quiet)


def names(section: str) -> list[str]:
    return [m["name"] for m in run.spec()[section]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_every_check(name, tmp_path):
    result = tiny_run(name, tmp_path)
    assert result["failed"] == 0 and result["correct"], result
    assert result["attempted"] > 2 * run.SETUP_PROBES
    assert list(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_listed_workload_is_implemented():
    assert {w["name"] for w in run.spec()["workloads"]} <= set(WORKLOADS)


def test_traced_run_reports_every_layer_metric_and_counts_repeat(tmp_path):
    first = tiny_run("flag-pipeline", tmp_path, seed=1, traced=True)
    second = tiny_run("flag-pipeline", tmp_path, seed=2, traced=True)
    assert first["failed"] == 0 and second["failed"] == 0
    assert list(first["metrics"]) == names("per_layer")
    counts = [m["name"] for m in run.spec()["per_layer"] if m["unit"] == "count"]
    assert counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["coxeter.group_order"]["value"] > 0
    assert first["metrics"]["hecke.apply.calls"]["value"] > 0


def corrupted(monkeypatch, tmp_path, name: str, match: str, corrupt) -> dict:
    """Tiny run in which `corrupt` rewrites the result of every process
    whose arguments contain `match`."""
    spawn = run.Runner.spawn

    def fake(self, argv, *args, **kwargs):
        res = spawn(self, argv, *args, **kwargs)
        if match in argv:
            corrupt(res)
        return res

    monkeypatch.setattr(run.Runner, "spawn", fake)
    return tiny_run(name, tmp_path)


def test_wrong_digest_fails(monkeypatch, tmp_path):
    def flip(res):
        res.stdout = res.stdout.replace(b"element e", b"element f")

    result = corrupted(monkeypatch, tmp_path, "flag-pipeline", "sl3_so12", flip)
    assert result["failed"] == run.MIN_REPETITIONS and not result["correct"]


def test_wrong_orbit_size_fails(monkeypatch, tmp_path):
    def grow(res):
        obj = json.loads(res.stdout)
        obj["reports"][0]["orbits"][-1]["size"] += 1
        res.stdout = json.dumps(obj).encode()

    result = corrupted(monkeypatch, tmp_path, "oracle-fields", "gl3_q3.json", grow)
    assert result["failed"] == run.MIN_REPETITIONS and not result["correct"]


def test_accepted_mutant_fails(monkeypatch, tmp_path):
    def accept(res):
        res.code, res.stdout = 0, b"OK\n"

    result = corrupted(monkeypatch, tmp_path, "cli-small", "mutant_0.json", accept)
    assert result["failed"] == run.MIN_REPETITIONS and not result["correct"]


def test_without_the_program_exits_nonzero_without_result(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed(tmp_path):
    def digests(seed, tag):
        work = tmp_path / tag
        work.mkdir()
        return WORKLOADS["oracle-fields"](seed, work, run.SRC, None, True).inputs

    assert digests(3, "a") == digests(3, "b") != digests(4, "c")


def test_conjugation_keeps_the_prime_pinned():
    rng = random.Random(0)
    spec = inputs.conjugate_spec(inputs.bruhat_spec(2, 5), 5, rng)
    assert spec["q"] == 5
    with pytest.raises(ValueError):
        inputs.conjugate_spec(spec, 7, rng)
    g, g_inv = inputs.random_invertible(3, 7, rng)
    assert inputs._mul(g, g_inv, 7) == [[int(i == j) for j in range(3)] for i in range(3)]


def test_raise_dims_are_constant_on_conjugacy_classes():
    rng = random.Random(5)
    for system, (_, classes, _) in inputs.SYSTEMS.items():
        dims = inputs.raise_dims(system, rng)
        for cls in classes:
            assert len({dims[i - 1] for i in cls}) == 1, system
