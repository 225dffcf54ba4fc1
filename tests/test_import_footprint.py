"""The library's light entry points import neither scipy nor networkx.

Solving is the only layer that needs scipy (HiGHS) and only the graph
conversions need networkx, so a fresh interpreter that imports the study API
or starts the service must not pay for either: the service answers
memo-served studies and status polls without ever solving.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.mark.parametrize("module", ["repro.api", "repro.cli", "repro.service.server"])
def test_fresh_import_leaves_scipy_and_networkx_unloaded(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = (
        f"import sys, {module}\n"
        "print(sorted(name for name in ('scipy', 'networkx') if name in sys.modules))\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    ).stdout
    assert output.strip() == "[]"
