"""The flagship build finishes on 1 and 2 CPUs, with the tiles of the
in-process tile chain.

Runs scripts/small_cpu_check.py in a SUBPROCESS under a timeout: the
pytest session owns its own 4-CPU Ray, and a build that waits forever
for a CPU must fail the test, not hang the suite.
"""
import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_tile_dataset_small_cpu_count(num_cpus):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    # own process group: on a timeout the Ray processes the check
    # started go down with it
    p = subprocess.Popen(
        [sys.executable, os.path.join(REPO, "scripts", "small_cpu_check.py"),
         str(num_cpus), "500"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=REPO, start_new_session=True)
    try:
        out, err = p.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail(f"tile_dataset on {num_cpus} CPU(s) did not finish in 300 s")
    assert p.returncode == 0, out[-2000:] + err[-2000:]
    assert f"SMALL CPU OK cpus={num_cpus}" in out
