"""The README's Python example runs as written, so it stays in step with the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].split() == ["completed", "100", "2.0"]
