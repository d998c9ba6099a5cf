"""The README's library quickstart runs as written, so a renamed or removed
name breaks a test before it breaks a reader."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "the README holds one python block, the quickstart"
    exec(compile(blocks[0], f"{README.name} quickstart", "exec"), {"__name__": "quickstart"})
    assert capsys.readouterr().out
