"""Fault-tolerance parity check: kill a worker mid-run, same tiles.

The north rule requires the job to survive failures mid-pipeline.
This script runs the flagship twice in fresh single-node Ray sessions:

  leg A  clean run -> {(z, x, y): md5(mvt)}
  leg B  the FIRST extractor call hard-kills its task's worker
         process (os._exit(1), a real process death — not a Python
         exception), exactly once per run (a /tmp flag file gates the
         kill).  Extraction runs as plain Ray tasks, so no actor is
         restarted: Ray retries the killed task from lineage on
         another worker, and the run must complete with
         byte-identical tiles.

Exit 0 + "FAULT OK" only if leg B actually killed a worker (flag file
present) AND its tile bytes equal leg A's.

Run:  python scripts/fault_check.py [n_rows]
Invoked as a subprocess by tests/test_multinode.py.
"""
from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

KILL_FLAG = "/tmp/tilemaker_ray_fault_check.flag"


class CrashOnceExtractor:
    """PageFeatureExtractor whose first __call__ in the run kills the
    task's worker process — after marking the flag, so the retried task
    (and every other task) proceeds normally."""

    def __init__(self, *a, **kw):
        from tilemaker_ray.stages.extract import PageFeatureExtractor
        self.inner = PageFeatureExtractor(*a, **kw)

    def __call__(self, batch):
        if not os.path.exists(KILL_FLAG):
            with open(KILL_FLAG, "w") as fh:
                fh.write("killed")
                fh.flush()
                os.fsync(fh.fileno())
            os._exit(1)
        return self.inner(batch)


def _collect(crash: bool) -> dict:
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    try:
        from tilemaker_ray.pipelines import flagship
        from tilemaker_ray.sources.pages import pages_path

        n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
        d = pages_path(n_rows)
        orig = flagship.PageFeatureExtractor
        if crash:
            flagship.PageFeatureExtractor = CrashOnceExtractor
        try:
            tiles = flagship.tile_dataset(d)
            out = {}
            for b in tiles.iter_batches(batch_format="pandas",
                                        batch_size=4096):
                for z, x, y, m in zip(b["zoom"], b["tile_x"],
                                      b["tile_y"], b["mvt"]):
                    out[(int(z), int(x), int(y))] = \
                        hashlib.md5(bytes(m)).hexdigest()
            return out
        finally:
            flagship.PageFeatureExtractor = orig
    finally:
        ray.shutdown()


def main() -> int:
    if os.path.exists(KILL_FLAG):
        os.remove(KILL_FLAG)
    clean = _collect(crash=False)
    faulty = _collect(crash=True)
    if not os.path.exists(KILL_FLAG):
        print("FAIL: the fault was never injected (no kill happened)")
        return 1
    if set(clean) != set(faulty):
        print(f"FAIL: tile-set mismatch "
              f"({len(set(clean) ^ set(faulty))} keys differ)")
        return 1
    diff = [k for k in clean if clean[k] != faulty[k]]
    if diff:
        print(f"FAIL: byte mismatch on {len(diff)} tiles")
        return 1
    print(f"FAULT OK tiles={len(clean)} (worker killed mid-run, "
          f"output byte-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
