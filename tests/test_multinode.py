"""Multi-node parity: the flagship build on a real 3-node local Ray
cluster (ray.cluster_utils.Cluster — head driver-only + two 2-CPU
workers, objects crossing the inter-node object-store wire) must be
byte-identical to the single-node build.

Runs scripts/multinode_check.py in a SUBPROCESS because the pytest
session owns its own single-node Ray and a second control plane can't
share the process.
"""
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_multinode_flagship_parity():
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)  # legs pick their own address
    p = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "multinode_check.py"),
         "2000"],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    assert "PARITY OK nodes=3" in p.stdout


def test_cli_connects_to_existing_cluster():
    # `ray job submit` shape: the CLI driver must CONNECT to the live
    # cluster named by RAY_ADDRESS (what the job server sets), not
    # boot a private local Ray.
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    p = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts",
                                      "cluster_job_check.py")],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    assert "JOB OK" in p.stdout


def test_fault_injection_parity():
    # A worker process hard-killed mid-run (os._exit in the first
    # extractor call) must not change the output: extraction runs as
    # plain tasks, so no actor is restarted — Ray retries the killed
    # task from lineage and the tiles come out byte-identical to a
    # clean run.
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    p = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "fault_check.py"),
         "2000"],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    assert "FAULT OK" in p.stdout


def test_sigkill_resume_parity():
    # The whole job process group is SIGKILLed mid-run; a rerun must
    # resume from the checkpoint manifest (>=1 partition skipped) and
    # finish with tiles byte-identical to a never-killed run.
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    p = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts",
                                      "resume_kill_check.py")],
        capture_output=True, text=True, timeout=600, env=env, cwd=REPO)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    assert "RESUME OK" in p.stdout


def test_node_loss_mid_shuffle_parity():
    # The strongest fault: an entire worker node (raylet + object
    # store + in-flight shuffle blocks) is removed two seconds into
    # the flagship build on a 3-node cluster. Ray must reconstruct
    # the lost blocks from lineage on the surviving worker and the
    # tiles must come out byte-identical to a clean single-node run.
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    # one retry: the kill lands on a wall-clock timer, so ambient load
    # can slide it onto a phase boundary (observed once in a full-suite
    # run); a genuine recovery bug fails BOTH attempts
    for attempt in (0, 1):
        try:
            p = subprocess.run(
                [sys.executable, os.path.join(REPO, "scripts",
                                              "node_loss_check.py")],
                capture_output=True, text=True, timeout=240, env=env,
                cwd=REPO)
        except subprocess.TimeoutExpired:
            if attempt:
                raise
            continue
        if p.returncode == 0:
            break
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    assert "NODELOSS OK" in p.stdout


def test_spill_streaming_parity():
    # The object store is squeezed to ~100 MiB — far below the
    # flagship's intermediates at 60k pages — and the run must
    # complete byte-identically by SPILLING (streaming backpressure),
    # with the script asserting spill files were actually written.
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    p = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "spill_check.py")],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    assert "SPILL PARITY OK" in p.stdout
