"""The README's Python examples run against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].converged
