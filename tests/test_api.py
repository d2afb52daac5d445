"""The package's public names and the README's library example."""

import re
from pathlib import Path

import hotcold

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert len(set(hotcold.__all__)) == len(hotcold.__all__)
    for name in hotcold.__all__:
        assert getattr(hotcold, name) is not None, name


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["trace"]) == namespace["metrics"].total_cycles == 600
    distance, in_halt = capsys.readouterr().out.split()
    assert float(distance) > 0.0 and 0.0 <= float(in_halt) <= 100.0
