"""CLI surface (python -m tilemaker_ray) — subprocess-driven so the
CLI owns its own Ray session like a real invocation."""

import os
import subprocess
import sys

import pytest

from conftest import MONACO, REFERENCE, ROOT, split_pbf

OMT_LUA = os.path.join(REFERENCE, "resources", "process-openmaptiles.lua")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "tilemaker_ray", *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=280)


class TestCli:
    def test_help(self):
        r = run_cli("--help")
        assert r.returncode == 0
        assert "--input" in r.stdout and "--output" in r.stdout

    def test_missing_input_errors(self):
        r = run_cli("--output", "/tmp/x.mbtiles")
        assert r.returncode != 0
        assert "--input" in r.stderr

    def test_monaco_to_mbtiles(self, osm_inputs, tmp_path):
        from tilemaker_ray.sinks.mbtiles import read_mbtiles, read_metadata
        for k, src in enumerate(osm_inputs):
            out = str(tmp_path / f"m{k}.mbtiles")
            r = run_cli("--input", src, "--output", out, "--quiet")
            assert r.returncode == 0, r.stderr[-500:]
            tiles = read_mbtiles(out)
            assert len(tiles) >= 10
            assert read_metadata(out)["format"] == "pbf"

    def test_monaco_to_pmtiles_and_merge(self, osm_inputs, tmp_path):
        """pmtiles write + a second --merge run over the same archive:
        counts stay identical (merged features, not duplicated tiles)."""
        from tilemaker_ray.sinks.pmtiles import read_pmtiles
        for k, src in enumerate(osm_inputs):
            out = str(tmp_path / f"m{k}.pmtiles")
            r = run_cli("--input", src, "--output", out, "--quiet")
            assert r.returncode == 0, r.stderr[-500:]
            first = read_pmtiles(out)
            assert len(first["tiles"]) >= 10
            r = run_cli("--input", src, "--output", out, "--merge", "--quiet")
            assert r.returncode == 0, r.stderr[-500:]
            merged = read_pmtiles(out)
            assert set(merged["tiles"]) == set(first["tiles"])
            # merged tiles hold old+new features → strictly larger blobs
            t0 = sorted(first["tiles"])[0]
            assert len(merged["tiles"][t0]) > len(first["tiles"][t0])

    def test_bbox_restricts_tileset(self, osm_inputs, tmp_path):
        """--bbox restricts the generated tileset to tiles intersecting
        the box (reference options_parser.cpp:18-46), not just the
        metadata bounds."""
        from tilemaker_ray.sinks.mbtiles import read_mbtiles
        from tilemaker_ray.tilemath import bbox_tile_ranges
        for k, src in enumerate(osm_inputs):
            full = str(tmp_path / f"full{k}.mbtiles")
            clip = str(tmp_path / f"clip{k}.mbtiles")
            r = run_cli("--input", src, "--output", full, "--quiet")
            assert r.returncode == 0, r.stderr[-500:]
            # small interior box — strictly cuts the tileset at high zooms
            r = run_cli("--input", src, "--output", clip, "--quiet",
                        "--bbox", "7.425,43.73,7.4295,43.74")
            assert r.returncode == 0, r.stderr[-500:]
            t_full = set(read_mbtiles(full))
            t_clip = set(read_mbtiles(clip))
            assert t_clip and t_clip < t_full
            ranges = bbox_tile_ranges((7.425, 43.73, 7.4295, 43.74), 0, 14)
            for (z, x, y) in t_clip:
                x0, x1, y0, y1 = ranges[z]
                assert x0 <= x <= x1 and y0 <= y <= y1, (z, x, y)
            # tiles of the full run inside the box survive the clip run
            kept = {(z, x, y) for (z, x, y) in t_full
                    if ranges[z][0] <= x <= ranges[z][1]
                    and ranges[z][2] <= y <= ranges[z][3]}
            assert t_clip == kept

    def test_warc_input_to_mbtiles(self, tmp_path):
        """A .warc.gz crawl through the CLI matches the parquet pages
        path tile-for-tile (text re-derived from html on the fly)."""
        import glob

        import pyarrow as pa
        import pyarrow.parquet as pq

        from tilemaker_ray.sources.pages import pages_path
        from tilemaker_ray.sources.warc import write_warc

        pages_dir = pages_path(500)
        tabs = [pq.read_table(p)
                for p in sorted(glob.glob(pages_dir + "/*.parquet"))]
        warc = str(tmp_path / "crawl.warc.gz")
        write_warc(pa.concat_tables(tabs), warc)

        out_w = str(tmp_path / "w.mbtiles")
        out_p = str(tmp_path / "p.mbtiles")
        r = run_cli("--input", warc, "--output", out_w, "--quiet")
        assert r.returncode == 0, r.stderr[-500:]
        r = run_cli("--input", pages_dir, "--output", out_p, "--quiet")
        assert r.returncode == 0, r.stderr[-500:]

        from tilemaker_ray.sinks.mbtiles import read_mbtiles
        tw, tp = read_mbtiles(out_w), read_mbtiles(out_p)
        assert set(tw.keys()) == set(tp.keys()) and len(tw) > 10

    def test_positional_input_output(self, osm_inputs, tmp_path):
        """Reference positional form: `tilemaker in.pbf out.mbtiles`."""
        from tilemaker_ray.sinks.mbtiles import read_mbtiles
        for k, src in enumerate(osm_inputs):
            out = str(tmp_path / f"pos{k}.mbtiles")
            r = run_cli(src, out, "--quiet")
            assert r.returncode == 0, r.stderr[-500:]
            assert len(read_mbtiles(out)) >= 10

    @pytest.mark.skipif(not (os.path.exists(MONACO) and os.path.exists(OMT_LUA)),
                        reason=f"needs {MONACO} and {OMT_LUA}")
    def test_process_lua_shim(self, tmp_path):
        """--process process-openmaptiles.lua EXECUTES the reference's
        shipped Lua through the built-in interpreter (22 Monaco tiles,
        the frozen OMT count); a missing Lua file errors."""
        out = str(tmp_path / "omt.mbtiles")
        r = run_cli("--input", MONACO, "--output", out, "--quiet",
                    "--process", OMT_LUA)
        assert r.returncode == 0, r.stderr[-500:]
        from tilemaker_ray.sinks.mbtiles import read_mbtiles
        assert len(read_mbtiles(out)) == 22
        r = run_cli("--input", MONACO,
                    "--output", out, "--process", "custom.lua")
        assert r.returncode != 0 and "profile" in r.stderr

    def test_multi_input_cli(self, osm_inputs, tmp_path):
        """Repeated --input unions entity streams (multi-input test in
        test_osm.py checks tile parity; this checks the CLI surface)."""
        for k, src in enumerate(osm_inputs):
            a, b = str(tmp_path / f"a{k}.osm.pbf"), str(tmp_path / f"b{k}.osm.pbf")
            split_pbf(src, a, b)
            out = str(tmp_path / f"multi{k}.mbtiles")
            r = run_cli("--input", a, "--input", b, "--output", out, "--quiet")
            assert r.returncode == 0, r.stderr[-500:]
            from tilemaker_ray.sinks.mbtiles import read_mbtiles
            single = str(tmp_path / f"single{k}.mbtiles")
            r = run_cli("--input", src, "--output", single, "--quiet")
            assert r.returncode == 0
            assert set(read_mbtiles(out)) == set(read_mbtiles(single))

    def test_resume_keeps_joins(self, tmp_path):
        """--resume --joins writes the tiles --joins writes: the
        resumable path runs the join stage too."""
        import glob

        import pandas as pd

        from tilemaker_ray.sinks.mbtiles import read_mbtiles
        from tilemaker_ray.sources.pages import pages_path

        pages = pages_path(500)
        ref = str(tmp_path / "joins.mbtiles")
        out = str(tmp_path / "resumed")
        r = run_cli("--input", pages, "--output", ref, "--joins", "--quiet")
        assert r.returncode == 0, r.stderr[-500:]
        r = run_cli("--input", pages, "--output", out, "--resume",
                    "--joins", "--quiet")
        assert r.returncode == 0, r.stderr[-500:]
        got = {}
        for f in glob.glob(os.path.join(out, "tiles", "*.parquet")):
            df = pd.read_parquet(f)
            got.update({(int(z), int(x), int(y)): bytes(m) for z, x, y, m
                        in zip(df["zoom"], df["tile_x"], df["tile_y"],
                               df["mvt"])})
        want = read_mbtiles(ref)
        assert len(want) > 10
        assert got == want

    @pytest.mark.parametrize("bbox", [
        "a,b,c,d",          # not numbers
        "1,2,3",            # three values
        "8,44,7,43",        # min > max
        "nan,43,8,44",      # not finite
        "-181,43,8,44",     # lon out of range
        "7,-91,8,44",       # lat out of range
    ])
    def test_bad_bbox_exits_2_before_ray(self, bbox, tmp_path):
        """A malformed --bbox exits 2 with a message, before Ray is
        even imported."""
        code = ("import sys; from tilemaker_ray.__main__ import main; "
                "rc = main(sys.argv[1:]); print(rc, 'ray' in sys.modules)")
        r = subprocess.run(
            [sys.executable, "-c", code, "--input", str(tmp_path),
             "--output", str(tmp_path / "t.mbtiles"), f"--bbox={bbox}"],
            capture_output=True, text=True, cwd=ROOT, timeout=60)
        assert r.stdout.split() == ["2", "False"], r.stdout + r.stderr
        assert "error: --bbox" in r.stderr
        assert not os.path.exists(tmp_path / "t.mbtiles")

    def test_resume_into_container_errors(self, tmp_path):
        """--resume writes a tile directory: a .mbtiles or .pmtiles
        output exits 2 with a message and writes nothing."""
        from tilemaker_ray.sources.pages import pages_path
        for ext in ("mbtiles", "pmtiles"):
            out = str(tmp_path / f"tiles.{ext}")
            r = run_cli("--input", pages_path(500), "--output", out,
                        "--resume", "--quiet")
            assert r.returncode == 2
            assert "--resume" in r.stderr and ext in r.stderr
            assert not os.path.exists(out)
