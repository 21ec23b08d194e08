import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _section_python_blocks(heading):
    """The ```python blocks of the README section under ``## heading``."""
    text = README.read_text()
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    section = text[start:] if end < 0 else text[start:end]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)


def test_library_quickstart_runs_as_written(capsys):
    (code,) = _section_python_blocks("Library quickstart")
    exec(compile(code, f"{README}:Library quickstart", "exec"), {"__name__": "quickstart"})
    violation_ratio, loss, bound = capsys.readouterr().out.split()
    assert 0 <= float(bound) <= float(loss)
    assert float(violation_ratio) >= 0
