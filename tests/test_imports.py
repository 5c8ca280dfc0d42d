"""The package imports only numpy and the standard library at run time, and starts no thread on import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["evonas", "evonas.cli"])
def test_import_loads_no_scipy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (f"import json, sys, {module}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_import_and_a_desk_scoring_start_no_thread():
    """Only a batch run in halves starts the helper thread, or imports
    concurrent.futures for it: the CLI and proxy-map runs, which score no
    such batch, pay nothing for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, threading; before = threading.active_count(); import evonas as ev; "
            "batch, labels = ev.make_batch(ev.SyntheticBatchSpec(seed=1)); "
            "ev.score_arch(ev.random_arch(ev.RngStream(2)), batch, labels, ev.SkeletonConfig(), ev.ProxyParams(), "
            "ev.RngStream(3)); print(threading.active_count() - before, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
