"""The README's Library example runs as written, and a bare ``import vel``
stays light: every name is imported from its module."""

import os
import re
import subprocess
import sys
from pathlib import Path

import vel

README = Path(__file__).resolve().parents[1] / "README.md"
SRC_DIR = Path(vel.__file__).resolve().parents[1]


def test_readme_library_example_runs():
    # the first python block is the Library example; its asserts are the
    # values the README shows
    block = re.search(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert block, "README.md has no ```python block"
    exec(compile(block.group(1), str(README), "exec"), {})


def test_bare_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import vel, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
