"""The README's library tour runs as written, with warnings as errors."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["found"] is not None  # the tour compiles its search hit
