"""Child Python processes that import this checkout's package.

pytest puts ``src`` on its own ``sys.path`` (``pythonpath`` in
``pyproject.toml``), but a child process does not inherit that, so
``run_python`` prepends the checkout's ``src`` to the child's
``PYTHONPATH``.  The child sees no ``GOMETRICS_*`` variable beyond those
in ``env_extra``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args, env_extra=None):
    """``python *args`` in a child process, with its output captured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GOMETRICS_")}
    env.update(env_extra or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=300)
