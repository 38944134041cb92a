"""The README task table lists exactly each task's keys and their defaults,
and its library quick tour runs and prints what its comments say."""

import json
import math
import re
from pathlib import Path

from qshsim import config
from qshsim.config import normalize

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| task | key | default | accepted values |"


def _readme_defaults() -> dict:
    """{task: {key: default cell}} from the README task table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    table = {}
    for line in lines[lines.index(HEADER) + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        task, key, default, _ = cells
        assert key not in table.setdefault(task, {}), f"{task}.{key} listed twice"
        table[task][key] = default
    return table


def _value(cell: str):
    """A default cell as JSON, where π and p/q stand for their float values."""
    text = cell.replace("π", repr(math.pi))
    fraction = r"(\d+(?:\.\d+)?)/(\d+)"
    text = re.sub(fraction, lambda m: repr(float(m[1]) / int(m[2])), text)
    return json.loads(text)


def test_readme_task_table_matches_config_table():
    table = _readme_defaults()
    assert list(table) == list(config.TASKS)
    for task, cells in table.items():
        assert set(cells) == set(config.TASK_PARAMS[task]), task
        filled = normalize({"alpha": "1/3", task: {}}).task_params
        for key, cell in cells.items():
            assert _value(cell) == filled[key], f"{task}.{key}"


def test_readme_quick_tour_prints_what_it_claims(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README quick tour", "exec"), {})
    phase, chern, weight, margin, *decay = capsys.readouterr().out.splitlines()
    assert phase == "topological"
    assert chern == "(-1, 1)"
    assert float(weight) > 0.95
    assert margin == "(50, 100)"
    assert len(decay) == 3  # one row per decay rate
