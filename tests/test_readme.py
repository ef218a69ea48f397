"""README's examples run: every JSON datum validates clean, the oracle
spec enumerates and the Python library block runs."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from weylorb.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)
JSON_BLOCKS = [json.loads(text) for lang, text in BLOCKS if lang == "json"]
DATA = [obj for obj in JSON_BLOCKS if isinstance(obj.get("root_system"), dict)]
SPECS = [obj for obj in JSON_BLOCKS if "generators" in obj]
PYTHON = [text for lang, text in BLOCKS if lang == "python"]


def test_readme_has_the_examples():
    assert (len(DATA), len(SPECS), len(PYTHON)) == (1, 1, 1)
    assert len(JSON_BLOCKS) == len(DATA) + len(SPECS)
    assert any("lattice" in o for o in DATA[0]["orbits"])


@pytest.mark.parametrize("argv,obj", [(["validate"], DATA[0]),
                                      (["oracle", "enumerate"], SPECS[0])],
                         ids=["datum", "spec"])
def test_readme_json_example_runs(tmp_path, capsys, argv, obj):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err


def test_readme_library_example_runs():
    exec(compile(PYTHON[0], str(README), "exec"), {})
