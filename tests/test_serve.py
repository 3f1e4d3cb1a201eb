"""S8 GeoJSON debug writer + S9 tile server (stdlib http.server)."""

import gzip
import json
import socket
import threading
import urllib.request

import numpy as np


def _tile_blob(name: str) -> bytes:
    from tilemaker_ray import mvt
    tb = mvt.TileBuilder()
    lb = tb.layer("poi")
    lb.add_feature(mvt.GEOM_POINT, lb.encode_points([(10, 10)]),
                   [("name", name)])
    return gzip.compress(tb.serialize())


class TestGeojsonDebugWriter:
    def test_roundtrip_rows(self, tmp_path):
        from tilemaker_ray.geom import core as gc
        from tilemaker_ray.sinks.geojson_debug import write_geojson
        from tilemaker_ray import tilemath as tm
        rows = [
            {"geom_type": gc.POINT_, "layer": "poi",
             "attrs": json.dumps([["name", 0, 0, "x"], ["ele", 1, 0, 12.5]]),
             "min_zoom": 9, "lon": 7.5, "latp": float(tm.lat2latp(43.5)),
             "geom": b""},
            {"geom_type": gc.LINESTRING_, "layer": "roads",
             "attrs": "[]", "min_zoom": 0, "lon": 0.0, "latp": 0.0,
             "geom": gc.pack_mls([np.array(
                 [[7.0, float(tm.lat2latp(43.0))],
                  [7.1, float(tm.lat2latp(43.1))]])])},
            {"geom_type": gc.POLYGON_, "layer": "landuse",
             "attrs": "[]", "min_zoom": 0, "lon": 0.0, "latp": 0.0,
             "geom": gc.pack_mp([[np.array(
                 [[7.0, float(tm.lat2latp(43.0))],
                  [7.0, float(tm.lat2latp(43.2))],
                  [7.2, float(tm.lat2latp(43.2))],
                  [7.0, float(tm.lat2latp(43.0))]])]])},
        ]
        out = str(tmp_path / "debug.geojson")
        n = write_geojson(rows, out)
        assert n == 3
        fc = json.load(open(out))
        assert fc["type"] == "FeatureCollection"
        pt, ls, pg = fc["features"]
        assert pt["geometry"]["type"] == "Point"
        assert abs(pt["geometry"]["coordinates"][1] - 43.5) < 1e-9
        assert pt["properties"] == {"layer": "poi", "name": "x",
                                    "ele": 12.5, "_minzoom": 9}
        assert ls["geometry"]["type"] == "LineString"
        assert abs(ls["geometry"]["coordinates"][1][1] - 43.1) < 1e-9
        assert pg["geometry"]["type"] == "Polygon"


class TestTileServer:
    def _roundtrip(self, container, tmp_path):
        from tilemaker_ray import serve as srv
        server = srv.serve(container, port=0)  # ephemeral port
        port = server.server_address[1]
        t = threading.Thread(target=server.serve_forever, daemon=True)
        t.start()
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/5/1/2.pbf") as r:
                assert r.status == 200
                assert r.headers["Content-Encoding"] == "gzip"
                from tilemaker_ray.mvt import decode_tile
                dec = decode_tile(gzip.decompress(r.read()))
                assert dec["poi"]["features"][0]["tags"]["name"] == "a"
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/5/9/9.pbf") as r:
                assert r.status == 204
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metadata.json") as r:
                assert r.status == 200
                json.loads(r.read())
        finally:
            server.shutdown()
            server.server_close()

    def test_mbtiles_backend(self, tmp_path):
        from tilemaker_ray.config import default_config
        from tilemaker_ray.sinks import mbtiles
        p = str(tmp_path / "t.mbtiles")
        mbtiles.write_mbtiles(p, [(5, 1, 2, _tile_blob("a"))],
                              mbtiles.default_metadata(default_config()))
        self._roundtrip(p, tmp_path)

    def test_pmtiles_backend(self, tmp_path):
        from tilemaker_ray.sinks import pmtiles as pmt
        p = str(tmp_path / "t.pmtiles")
        pmt.write_pmtiles(p, [(5, 1, 2, _tile_blob("a"))], {"name": "t"})
        self._roundtrip(p, tmp_path)

    def test_zxy_backend(self, tmp_path):
        import os
        root = str(tmp_path / "tiles")
        os.makedirs(os.path.join(root, "5", "1"))
        with open(os.path.join(root, "5", "1", "2.pbf"), "wb") as f:
            f.write(_tile_blob("a"))
        with open(os.path.join(root, "metadata.json"), "w") as f:
            json.dump({"name": "t"}, f)
        self._roundtrip(root, tmp_path)


def test_metadata_alias(tmp_path):
    """Reference server route: /metadata (server.cpp:96) answers like
    /metadata.json."""
    import json
    import os
    import threading
    import urllib.request

    from tilemaker_ray.serve import serve

    root = str(tmp_path / "tiles")
    os.makedirs(os.path.join(root, "0", "0"))
    with open(os.path.join(root, "0", "0", "0.pbf"), "wb") as f:
        f.write(b"x")
    with open(os.path.join(root, "metadata.json"), "w") as f:
        json.dump({"name": "t"}, f)
    srv = serve(root, port=0)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    try:
        a = urllib.request.urlopen(f"{base}/metadata").read()
        b = urllib.request.urlopen(f"{base}/metadata.json").read()
        assert a == b and b"t" in a
    finally:
        srv.shutdown()
        srv.server_close()


def test_static_dir_serving(tmp_path):
    import threading
    import urllib.error
    import urllib.request

    from tilemaker_ray.serve import serve
    from tilemaker_ray.sinks.zxy import write_zxy  # noqa: F401 (import check)

    tiles_dir = tmp_path / "tiles"
    (tiles_dir / "0" / "0").mkdir(parents=True)
    (tiles_dir / "0" / "0" / "0.pbf").write_bytes(b"x")
    (tmp_path / "static").mkdir()
    (tmp_path / "static" / "index.html").write_text("<html>hi</html>")
    (tmp_path / "secret.txt").write_text("nope")

    srv = serve(str(tiles_dir), port=0, static_dir=str(tmp_path / "static"))
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    try:
        body = urllib.request.urlopen(f"{base}/index.html").read()
        assert b"hi" in body
        root = urllib.request.urlopen(f"{base}/").read()  # → index.html
        assert b"hi" in root
        try:
            urllib.request.urlopen(f"{base}/../secret.txt")
            got = 200
        except urllib.error.HTTPError as e:
            got = e.code
        assert got == 404
    finally:
        srv.shutdown()
        srv.server_close()


def _mbtiles(tmp_path, n=16, name="t.mbtiles"):
    """An .mbtiles of n z5 tiles at (5, i, i % 7) and the bytes of each."""
    from tilemaker_ray.config import default_config
    from tilemaker_ray.sinks import mbtiles
    tiles = {(5, i, i % 7): _tile_blob(f"t{i}") for i in range(n)}
    p = str(tmp_path / name)
    mbtiles.write_mbtiles(p, [(*k, v) for k, v in tiles.items()],
                          mbtiles.default_metadata(default_config()))
    return p, tiles


class _Running:
    """serve() on a background thread; stopped and closed on exit."""

    def __init__(self, container):
        from tilemaker_ray import serve as srv
        self.server = srv.serve(container, port=0)
        self.base = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()

    def get(self, path, timeout=5):
        """(status, body); HTTP errors are returned, not raised."""
        import urllib.error
        try:
            with urllib.request.urlopen(self.base + path,
                                        timeout=timeout) as r:
                return r.status, r.read()
        except urllib.error.HTTPError as e:
            with e:
                return e.code, e.read()

    def raw(self):
        return socket.create_connection(self.server.server_address,
                                        timeout=5)


class TestOneThreadServer:
    def test_idle_socket_does_not_block_requests(self, tmp_path):
        import time
        p, tiles = _mbtiles(tmp_path)
        with _Running(p) as s:
            idle = s.raw()  # connects, sends nothing
            try:
                t = time.perf_counter()
                status, body = s.get("/5/1/1.pbf")
                assert time.perf_counter() - t < 0.5
                assert (status, body) == (200, tiles[(5, 1, 1)])
            finally:
                idle.close()

    def test_silent_and_half_sent_requests_time_out(self, tmp_path,
                                                    monkeypatch):
        import time
        from tilemaker_ray import serve as srv
        monkeypatch.setattr(srv, "REQUEST_TIMEOUT_S", 0.5)
        p, tiles = _mbtiles(tmp_path)
        with _Running(p) as s:
            silent, half = s.raw(), s.raw()
            try:
                half.sendall(b"GET /5/1")  # no end of line
                t = time.perf_counter()
                status, body = s.get("/5/2/2.pbf", timeout=3)
                assert time.perf_counter() - t < 1.2
                assert (status, body) == (200, tiles[(5, 2, 2)])
                # both stalled connections are closed by the server
                assert half.recv(1024) == b""
                assert silent.recv(1024) == b""
                assert time.perf_counter() - t < 1.5
            finally:
                silent.close()
                half.close()

    def test_trickled_head_is_cut_off_at_its_deadline(self, tmp_path,
                                                      monkeypatch):
        """The head's time limit is for the whole head: a byte every
        0.3 s keeps the connection busy but not open past 0.5 s."""
        import time
        from tilemaker_ray import serve as srv
        monkeypatch.setattr(srv, "REQUEST_TIMEOUT_S", 0.5)
        p, tiles = _mbtiles(tmp_path)
        with _Running(p) as s:
            slow = s.raw()
            t0 = time.perf_counter()
            slow.sendall(b"GET /5/1/1.pbf HTTP/1.0\r\nX-Slow: ")

            def trickle():
                try:
                    for _ in range(10):
                        time.sleep(0.3)
                        slow.sendall(b"a")
                except OSError:
                    pass

            th = threading.Thread(target=trickle)
            th.start()
            try:
                for _ in range(4):  # answered while the trickle goes on
                    t = time.perf_counter()
                    got = s.get("/5/2/2.pbf", timeout=3)
                    assert got == (200, tiles[(5, 2, 2)])
                    assert time.perf_counter() - t < 0.3
                    time.sleep(0.2)
                try:
                    assert slow.recv(1024) == b""
                except ConnectionResetError:
                    pass
                assert time.perf_counter() - t0 < 1.2
            finally:
                th.join()
                slow.close()

    def test_slow_reader_holds_only_its_own_socket(self, tmp_path,
                                                   monkeypatch):
        import time
        from tilemaker_ray import serve as srv
        monkeypatch.setattr(srv, "REQUEST_TIMEOUT_S", 0.5)
        p, tiles = _mbtiles(tmp_path)
        static = tmp_path / "static"
        static.mkdir()
        big = 16 << 20  # more than the socket buffers hold
        (static / "big.bin").write_bytes(bytes(big))
        server = srv.serve(p, port=0, static_dir=str(static))
        th = threading.Thread(target=server.serve_forever, daemon=True)
        th.start()
        reader = socket.create_connection(server.server_address, timeout=5)
        try:
            reader.sendall(b"GET /big.bin HTTP/1.0\r\n\r\n")
            time.sleep(0.1)  # the server has filled the socket buffers
            t = time.perf_counter()
            with urllib.request.urlopen(
                    "http://127.0.0.1:%d/5/3/3.pbf"
                    % server.server_address[1], timeout=3) as r:
                assert r.read() == tiles[(5, 3, 3)]
            assert time.perf_counter() - t < 0.3
            time.sleep(1.0)  # no reply bytes taken for > 0.5 s: dropped
            got = 0
            while True:
                try:
                    chunk = reader.recv(1 << 20)
                except ConnectionResetError:
                    break
                if not chunk:
                    break
                got += len(chunk)
            assert 0 < got < big
        finally:
            reader.close()
            server.shutdown()
            server.server_close()

    def test_long_and_half_closed_heads(self, tmp_path):
        from tilemaker_ray import serve as srv
        p, tiles = _mbtiles(tmp_path)
        with _Running(p) as s:
            long = s.raw()  # a head past MAX_HEAD_BYTES is closed unanswered
            try:
                long.sendall(b"GET /5/1/1.pbf HTTP/1.0\r\nX: "
                             + b"a" * srv.MAX_HEAD_BYTES)
                try:
                    assert long.recv(1024) == b""
                except ConnectionResetError:
                    pass
            finally:
                long.close()
            half = s.raw()  # EOF ends the head, as in http.client
            try:
                half.sendall(b"GET /5/1/1.pbf HTTP/1.0\r\n")
                half.shutdown(socket.SHUT_WR)
                reply = b""
                while chunk := half.recv(65536):
                    reply += chunk
                assert reply.startswith(b"HTTP/1.0 200 ")
                assert reply.endswith(tiles[(5, 1, 1)])
            finally:
                half.close()

    def test_concurrent_clients_get_container_bytes(self, tmp_path):
        # URI characters in the name must not cut the sqlite file name
        p, tiles = _mbtiles(tmp_path, name="t#1?x %20.mbtiles")
        keys = sorted(tiles)
        bad = []

        def client(c):
            for i in range(25):
                key = keys[(c * 25 + i) % len(keys)]
                got = s.get("/%d/%d/%d.pbf" % key)
                if got != (200, tiles[key]):
                    bad.append((key, got[0]))

        with _Running(p) as s:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_shutdown_returns_promptly(self, tmp_path):
        import time
        from tilemaker_ray import serve as srv
        p, _ = _mbtiles(tmp_path)
        server = srv.serve(p, port=0)
        th = threading.Thread(target=server.serve_forever, daemon=True)
        th.start()
        t = time.perf_counter()
        server.shutdown()  # right after the start
        assert time.perf_counter() - t < 2
        th.join(timeout=2)
        assert not th.is_alive()
        server.server_close()

    def test_out_of_range_tiles_are_404(self, tmp_path):
        import time
        p, _ = _mbtiles(tmp_path)
        with _Running(p) as s:
            t = time.perf_counter()
            for path in ("/33/0/0.pbf", "/300000000/0/0.pbf",
                         "/5/32/0.pbf", "/5/0/32.pbf", "/0/1/0.pbf",
                         "/1/" + "9" * 5000 + "/0.pbf",
                         "/" + "9" * 5000 + "/0/0.pbf"):
                assert s.get(path)[0] == 404, path[:40]
            assert time.perf_counter() - t < 2
            assert s.get("/5/31/3.pbf")[0] == 204  # edge of the pyramid

    def test_backend_error_is_500(self, tmp_path, monkeypatch):
        from tilemaker_ray import serve as srv

        def broken(self, z, x, y):
            raise RuntimeError("disk gone")

        p, tiles = _mbtiles(tmp_path)
        with _Running(p) as s:
            monkeypatch.setattr(srv.MbtilesBackend, "get_tile", broken)
            monkeypatch.setattr(srv.TileServer, "handle_error",
                                lambda *a: None)
            assert s.get("/5/1/1.pbf")[0] == 500
            monkeypatch.undo()
            assert s.get("/5/1/1.pbf") == (200, tiles[(5, 1, 1)])
            m = json.loads(s.get("/metrics")[1])
            assert (m["requests"], m["hits"], m["errors"]) == (2, 1, 1)

    def test_metrics_count_a_scripted_mix(self, tmp_path):
        p, _ = _mbtiles(tmp_path)
        with _Running(p) as s:
            statuses = [s.get(path)[0] for path in (
                "/5/1/1.pbf", "/5/2/2.pbf", "/5/3/3.mvt",   # hits
                "/5/9/9.pbf", "/5/30/30.pbf",              # misses
                "/6/64/0.pbf",                              # 404
                "/metadata", "/nope")]                      # not tiles
            assert statuses == [200, 200, 200, 204, 204, 404, 200, 404]
            m = json.loads(s.get("/metrics")[1])
            m2 = json.loads(s.get("/metrics")[1])
        assert m == m2  # /metrics is not counted
        assert (m["requests"], m["hits"], m["misses"], m["errors"]) == \
            (6, 3, 2, 1)
        assert list(m["latency_ms"]) == ["0.25", "0.5", "1", "2", "4", "8",
                                         "16", "32", "64", "+Inf"]
        assert sum(m["latency_ms"].values()) == 6


def test_pmtiles_backend_matches_read_pmtiles(tmp_path):
    """> 2,200 directory entries put the z6+ tiles in leaf directories;
    tiny tiles repeated on consecutive ids become run-length entries."""
    import pytest
    from tilemaker_ray.serve import PmtilesBackend
    from tilemaker_ray.sinks import pmtiles as pmt
    tiles = []
    for tid in range(4000):
        if tid % 10 < 5:  # five consecutive copies of one tiny tile
            data = b"run-%d" % (tid // 10)
        else:
            data = b"tile-%d" % tid
        tiles.append((*pmt.tileid_to_zxy(tid), data))
    p = str(tmp_path / "t.pmtiles")
    pmt.write_pmtiles(p, tiles, {"name": "t"})
    rd = pmt.read_pmtiles(p)
    assert rd["counts"]["entries"] > 2200
    assert rd["counts"]["entries"] < rd["counts"]["addressed"] == 4000
    assert len(rd["tiles"]) == 4000
    backend = PmtilesBackend(p)
    try:
        assert len(backend.entries) == rd["counts"]["entries"]
        assert backend.metadata() == rd["metadata"] == {"name": "t"}
        for tid, data in rd["tiles"].items():
            assert backend.get_tile(*pmt.tileid_to_zxy(tid)) == data
        assert backend.get_tile(*pmt.tileid_to_zxy(4000)) is None
        assert backend.get_tile(14, 0, 0) is None
    finally:
        backend.close()

    bad = tmp_path / "bad.pmtiles"
    bad.write_bytes(b"PMTiles\x02" + bytes(200))
    with pytest.raises(ValueError, match="bad.pmtiles"):
        pmt.read_pmtiles(str(bad))
    with pytest.raises(ValueError, match="bad.pmtiles"):
        PmtilesBackend(str(bad))
