"""Tests for the repository's tools."""

import importlib.util
from pathlib import Path

UNREACHED = Path(__file__).resolve().parent.parent / "tools" / "unreached.py"


def test_unreached_lists_each_unrun_statement_once_outermost(tmp_path):
    spec = importlib.util.spec_from_file_location("unreached", UNREACHED)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(x):\n"                     # 1
        "    if x > 0:\n"                 # 2
        "        for i in range(x):\n"    # 3
        "            x += i\n"            # 4
        "        return x\n"              # 5
        "    if x < -10:\n"               # 6
        "        raise ValueError(x)\n"   # 7
        "    return 0\n"                  # 8
        "\n"
        "\n"
        "f(0)\n")                         # 11
    # the lines that running the module, and so f(0), runs
    ran = {1, 2, 6, 8, 11}
    # the loop is listed, not its body again; the raise is left out
    assert tool.unreached(path, ran) == [(3, "for i in range(x):"),
                                         (5, "return x")]
