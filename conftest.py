"""Let the tests run from a plain checkout, without installing qroot.

pytest puts src/ on sys.path (pyproject.toml); the CLI tests start
`python -m qroot.cli` subprocesses, which find the package through
PYTHONPATH instead.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
