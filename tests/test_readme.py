"""The README's library snippet runs as documented."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["open_after_step_1"] == 6
    assert namespace["trace"].died_at == 3
    assert namespace["exact"] == Fraction(1, 1)
