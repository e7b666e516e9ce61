"""The README quick start runs, and each value prints as its comment says."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_start_lines() -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    return block.group(1).splitlines()


def test_quick_start_comments_are_what_the_library_prints():
    namespace: dict = {}
    checked = 0
    for line in _quick_start_lines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if not comment:
            exec(code, namespace)
            continue
        assert str(eval(code, namespace)) == comment, code
        checked += 1
    assert checked >= 4
