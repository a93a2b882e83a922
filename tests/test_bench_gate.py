"""``tools/bench_gate.py`` times the tree that ``PYTHONPATH`` names.

The gate puts its own checkout's ``src`` on ``sys.path`` so it runs
from a bare checkout.  It must not shadow ``PYTHONPATH``: comparing a
parent tree against a change means importing the gate once with each
tree's ``src`` on ``PYTHONPATH``, and a gate that always imported its
own checkout would time the same code twice.  Each check runs in a
fresh interpreter, since ``repro`` is already imported here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_repro(pythonpath, cwd) -> Path:
    """``repro.__file__`` in a fresh interpreter that imports the gate
    first, with ``PYTHONPATH`` set to ``pythonpath`` (unset if None)."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
        "import bench_gate, repro; print(repro.__file__)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return Path(result.stdout.strip()).resolve()


def test_pythonpath_tree_beats_the_gate_checkout(tmp_path):
    other = tmp_path / "other" / "src"
    (other / "repro").mkdir(parents=True)
    (other / "repro" / "__init__.py").write_text("")
    imported = _imported_repro(str(other), tmp_path)
    assert imported == (other / "repro" / "__init__.py").resolve()


def test_gate_checkout_without_pythonpath(tmp_path):
    imported = _imported_repro(None, tmp_path)
    assert imported == (ROOT / "src" / "repro" / "__init__.py").resolve()
