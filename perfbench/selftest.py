"""Tiny-input self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload end to end on tiny inputs, with tracing off and on,
and asserts that each run is correct and reports every metric named in
BENCHMARK.json with its unit.  Then it corrupts one byte of one tile and
confirms that the batch output check and the serving check each count
it as a failed operation, and that the benchmark refuses to run outside
a checkout of the repository.  Takes about three minutes on 4 cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sqlite3
import subprocess
import sys

from common import BENCH_DIR, ROOT, check_digest, tile_digest, work_path

SEED = 1


def bench(*args: str, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=300)


def check_reports(spec: dict) -> None:
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        for w in workloads:
            p = bench("--workload", w, "--seed", str(SEED), "--seconds", "2",
                      "--trace", trace, "--scale", "tiny")
            r = json.loads(p.stdout.strip().splitlines()[-1])
            assert p.returncode == 0 and r["correct"], (w, trace, p.stdout[-2000:])
            assert r["failed"] == 0 and r["attempted"] >= 1, (w, trace, r)
            got = r["metrics"]
            assert set(got) == {m["name"] for m in metrics}, (w, trace, set(got))
            for m in metrics:
                value = got[m["name"]]["value"]
                assert got[m["name"]]["unit"] == m["unit"], (w, m)
                assert isinstance(value, (int, float)) and math.isfinite(value)
                if trace == "0":
                    assert value > 0, (w, m["name"], value)
            print(f"ok {w} trace={trace}", flush=True)


def check_corruption() -> None:
    sys.path.insert(0, ROOT)
    import fixtures
    import run

    scale = "tiny"
    good = fixtures.web_container(scale, SEED)
    bad = work_path("selftest", "corrupt.mbtiles")
    shutil.copyfile(good, bad)
    con = sqlite3.connect(bad)
    z, x, tms_y, blob = con.execute(
        "SELECT zoom_level, tile_column, tile_row, tile_data FROM tiles "
        "ORDER BY zoom_level, tile_column, tile_row LIMIT 1").fetchone()
    blob = bytearray(blob)
    blob[len(blob) // 2] ^= 0xFF
    con.execute("UPDATE tiles SET tile_data=? WHERE zoom_level=? AND "
                "tile_column=? AND tile_row=?", (bytes(blob), z, x, tms_y))
    con.commit()
    con.close()

    # batch check: the corrupted tile set is a failed run
    ref = fixtures.web_reference(scale, SEED)
    rows = [(*k, b) for k, b in fixtures.container_tiles(bad).items()]
    outcome = run.Outcome()
    _, _, results = run.run_batch(lambda: tile_digest(rows), 0)
    run.check_outputs(results, lambda got: check_digest(got, ref), outcome)
    assert outcome.attempted >= 1 and outcome.failed == outcome.attempted, \
        vars(outcome)

    # serving check: the corrupted body is a failed request
    tiles = fixtures.container_tiles(good)
    key = (z, x, (1 << z) - 1 - tms_y)
    srv, _ = run.start_server(bad, key)
    try:
        status, body = run.fetch(srv.port, key)
    finally:
        srv.stop()
    outcome = run.Outcome()
    outcome.record(run.serve_check(tiles, key, status, body))
    assert status == 200 and outcome.failed == 1, (status, vars(outcome))
    print("ok a corrupted tile byte counts as a failure", flush=True)


def check_outside_checkout() -> None:
    """With only BENCHMARK.json and perfbench/, the run must fail
    without printing a result."""
    bare = work_path("selftest", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = bench("--workload", "web_build", "--seed", "1", "--seconds", "1",
              "--trace", "0", root=bare)
    assert p.returncode != 0 and '"correct"' not in p.stdout, p
    shutil.rmtree(bare)
    print("ok refuses to run outside a checkout", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_reports(spec)
    check_corruption()
    check_outside_checkout()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
