"""Package surface: the names ``weylorb`` exports."""

from __future__ import annotations

import doctest
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import weylorb

EXPORTED = {
    "BraidObstruction", "BraidViolation", "GeneratorTheoremResult",
    "SubgroupDescription", "act_word", "action_table", "braid_check",
    "check_generator_theorem", "stabilizer_open",
    "DATUM_NAMES", "ORACLE_SPEC_NAMES", "bundled_datum", "oracle_spec_text",
    "DEFAULT_GROUP_CAP", "CapExceeded", "RootSystem", "RootSystemError",
    "WeylElement", "braid_order", "build_root_system", "enumerate_group",
    "reflections", "subgroup_closure", "word_name",
    "KINDS", "DatumFormatError", "Orbit", "OrbitDatum", "RaiseCell",
    "ValidationReport", "Violation", "check_lattices", "datum_from_obj",
    "datum_to_obj", "dumps", "export_dot", "generate_flag_datum",
    "loads", "validate",
    "HeckeBraidViolation", "HeckeError", "HeckeModule", "HeckeReport",
    "RegularRepReport", "braid_check_module", "build_module", "check_module",
    "leading_term", "verify_regular_representation",
    "DEFAULT_Q_LIST", "CompareReport", "InferredDatum", "MatGroupSpec",
    "OracleError", "OracleReport", "OrbitInfo", "align_reports", "compare",
    "enumerate_orbits", "fit_monomial", "infer_datum", "spec_from_obj",
    "InputError", "__version__",
}


def test_exported_names_are_unchanged_and_resolve():
    assert len(weylorb.__all__) == len(set(weylorb.__all__))
    assert set(weylorb.__all__) == EXPORTED
    assert EXPORTED <= set(dir(weylorb))
    for name in weylorb.__all__:
        assert getattr(weylorb, name) is not None, name
    namespace: dict = {}
    exec("from weylorb import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


def test_layer_doctests_pass():
    results = [doctest.testmod(importlib.import_module(f"weylorb.{name}"))
               for name in weylorb._LAYERS]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) > 0


# benchmark/shim.py wraps these names right after ``import weylorb.cli``,
# before any command runs, so each layer must already be in sys.modules.
_SHIM_TARGETS = """
import sys
sys.path.insert(0, sys.argv[1])
import layers
import weylorb.cli

for module, attr, _ in layers.TARGETS:
    obj = sys.modules["weylorb." + module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), (module, attr)
print(len(layers.TARGETS))
"""


def test_benchmark_targets_resolve_after_importing_the_cli():
    root = Path(weylorb.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _SHIM_TARGETS, str(root / "benchmark")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0



def _public_callables():
    """(name, object) for every public function, class and method that
    ``weylorb`` exports: a class's own methods and property getters,
    ``__init__`` included."""
    for name in weylorb.__all__:
        obj = getattr(weylorb, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                member = getattr(member, "fget", member)  # a property's getter
                if inspect.isfunction(member) and (attr == "__init__"
                                                   or not attr.startswith("_")):
                    yield f"{name}.{attr}", member


def test_type_hints_of_the_public_api_resolve():
    unresolved = []
    for name, obj in _public_callables():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
