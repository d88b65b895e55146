"""Every imported name is read somewhere in its file.

No pyflakes is at hand, so this parses each module with `ast`. A name
counts as read when it is loaded anywhere in the file, in any scope, or
named in `__all__`. Package `__init__.py` files re-export what they import
and are left out, as is `from __future__ import annotations`.

Also: importing the CLI loads no process-pool module.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "scripts")
               for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name `source` imports and never reads."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


def test_files_are_found():
    assert {p.parent.name for p in FILES} >= {"mcoc", "tests", "scripts"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, "\n".join(f"{path.relative_to(ROOT)}:{line}: {name} "
                                 f"is imported but never read"
                                 for line, name in unused)


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\n", [(1, "np")]),
    ("from a import (b,\n    c)\nb()\n", [(1, "c")]),
    ("from a import b as c\nc\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n    return json\n", []),
    ("from a import b\nb = 1\n", [(1, "b")]),
])
def test_unused_imports_finds_what_is_never_read(source, unused):
    assert unused_imports(source) == unused


def test_importing_the_cli_loads_no_process_pool():
    # load_jsonl forks with os and pickle alone: multiprocessing or
    # concurrent.futures would add their import time to every command
    code = "import sys, mcoc.cli; print(*sorted(sys.modules))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path)).stdout.split()
    assert "mcoc.parallel" in loaded
    assert [m for m in loaded
            if m.split(".")[0] in ("multiprocessing", "concurrent")] == []
