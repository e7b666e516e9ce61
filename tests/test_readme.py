"""The README quick start runs, each value prints as its comment says, and the
p2 kernels, the monomial writer and the torus order kernels the README shows
are the ones that run."""

import os
import re

from qtorus.algebra import P2, TORUS
from qtorus.rewrite import order_kernel_source, swap_exponent

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


def test_the_p2_kernel_shown_is_the_one_that_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    assert f"```python\n{P2.kernel_source}```" in text
    assert f"```python\n{P2.row_source}```" in text


def test_the_p2_monomial_writer_shown_is_the_one_that_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    assert f"```python\n{P2.monomial_source}```" in text


def test_the_torus_order_kernels_shown_are_the_ones_that_run():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    m = [[swap_exponent(TORUS, a, b) for b in range(TORUS.d)] for a in range(TORUS.d)]
    assert m == [[0, 2], [-2, 0]]
    assert f"```python\n{order_kernel_source(m)}```" in text
