"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:library example", "exec"), {})
    fid, eps, min_m = capsys.readouterr().out.split()
    assert 0.0 <= float(fid) <= 1.0 and 0.0 <= float(eps) <= 1.0
    assert int(min_m) >= 1
