"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    commented = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert printed == commented == [
        "q^8 + 4q^4",
        "(1, 0, 0, 0, 0, 0, 0, 1)",
        "(1, 0, 0, 0, 0, 0, 0, 0, 4)",
    ]
