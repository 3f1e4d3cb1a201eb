"""The flagship build finishes on 1 and 2 CPUs, from parquet pages and
from a WARC crawl, and the OSM build (from one file and from two that
share a node store) and the resumable build on 1 CPU, each with the
tiles of the in-process tile chain.

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


@pytest.mark.parametrize("source,num_cpus,size",
                         [("parquet", 1, 500), ("parquet", 2, 500),
                          ("warc", 1, 500), ("warc", 2, 500),
                          ("osm", 1, 6000), ("osm2", 1, 6000),
                          ("resume", 1, 500)],
                         ids=["1", "2", "warc-1", "warc-2", "osm-1",
                              "osm2-1", "resume-1"])
def test_tile_dataset_small_cpu_count(source, num_cpus, size):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    # own process group: on a timeout the Ray processes the check
    # started go down with it
    p = subprocess.Popen(
        [sys.executable, os.path.join(REPO, "scripts", "small_cpu_check.py"),
         str(num_cpus), str(size), source],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=REPO, start_new_session=True)
    try:
        out, err = p.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail(f"the {source} build on {num_cpus} CPU(s) did not "
                    "finish in 300 s")
    assert p.returncode == 0, out[-2000:] + err[-2000:]
    assert f"SMALL CPU OK cpus={num_cpus} input={source}" in out
