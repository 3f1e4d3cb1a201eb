"""Minimal tile server (S9) — serve an .mbtiles / .pmtiles archive or
a z/x/y directory over HTTP with the standard slippy URL scheme:

    python -m tilemaker_ray.serve tiles.mbtiles --port 8080
    GET /{z}/{x}/{y}.pbf       → tile bytes (Content-Encoding: gzip);
                                 204 for a tile the container lacks,
                                 404 outside z ≤ 32, 0 ≤ x, y < 2^z
    GET /metadata.json         → container metadata
    GET /metrics               → tile request counters (JSON)

Mirrors the reference's dev-server role (SURVEY S9) with only the
standard library.

Threading model: every request runs on the thread that calls
`serve_forever`, and that thread never waits on one client. It runs
one selector loop over non-blocking sockets: it accepts each
connection and reads its request head (the request line and headers,
up to the blank line) as the bytes arrive. Once the head is complete,
the stdlib `BaseHTTPRequestHandler` parses it from memory and writes
its reply to memory; the loop then sends the reply as the client
takes it and closes the connection (HTTP/1.0, one request per
connection). No thread is started per connection.

A connection must deliver its whole head within `REQUEST_TIMEOUT_S`
of being accepted, however it trickles in, and a client that takes
no reply bytes for `REQUEST_TIMEOUT_S` is dropped; a head longer than
`MAX_HEAD_BYTES` is closed unanswered. Stalled clients hold only
their own socket, never the loop.

Backends open their container once, at start: `.mbtiles` through one
read-only sqlite connection, `.pmtiles` through one file descriptor
and its tile directory, read with `os.pread`. A running server keeps
serving the container it opened; `write_mbtiles` deletes and recreates
the file, so restart the server after a rebuild.

`/metrics` counts tile requests (`requests`; `hits` answered 200,
`misses` 204, `errors` 4xx/5xx) and their latency in `latency_ms`,
from the start of the handler until the last reply byte is sent.
Each bucket counts the requests at most its bound and above the one
before.
Requests to `/metrics` itself are not counted."""

from __future__ import annotations

import argparse
import bisect
import io
import json
import os
import re
import selectors
import socket
import sqlite3
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import quote

TILE_RE = re.compile(r"^/(\d+)/(\d+)/(\d+)\.(pbf|mvt)$")
MAX_ZOOM = 32
# seconds a connection has to send its request head from being
# accepted, and a client may take no reply bytes
REQUEST_TIMEOUT_S = 5.0
MAX_HEAD_BYTES = 65536
LATENCY_BUCKETS_MS = (0.25, 0.5, 1, 2, 4, 8, 16, 32, 64)
# socketserver's choice: poll(2) adds no system call per registration
_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)


class TileBackend:
    def get_tile(self, z: int, x: int, y: int) -> bytes | None:
        raise NotImplementedError

    def metadata(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class MbtilesBackend(TileBackend):
    def __init__(self, path: str):
        self.path = path
        # built on the caller's thread, read on the serving thread; the
        # path is quoted, or a '#' or '?' in it would end the file name
        self.con = sqlite3.connect(f"file:{quote(path)}?mode=ro", uri=True,
                                   check_same_thread=False)

    def get_tile(self, z, x, y):
        tms_y = (1 << z) - 1 - y
        row = self.con.execute(
            "SELECT tile_data FROM tiles WHERE zoom_level=? AND "
            "tile_column=? AND tile_row=?", (z, x, tms_y)).fetchone()
        return bytes(row[0]) if row else None

    def metadata(self):
        return {k: v for k, v in
                self.con.execute("SELECT name, value FROM metadata")}

    def close(self):
        self.con.close()


class PmtilesBackend(TileBackend):
    """Keeps the tile directory, not the tiles: each request reads its
    tile with os.pread, so memory follows the directory's entries."""

    def __init__(self, path: str):
        from .sinks.pmtiles import read_index
        self.fd = os.open(path, os.O_RDONLY)
        try:
            index = read_index(self.fd, path)
        except BaseException:
            os.close(self.fd)
            raise
        self.meta = index["metadata"]
        self.entries = index["entries"]
        self.starts = [e[0] for e in self.entries]

    def get_tile(self, z, x, y):
        from .sinks.pmtiles import zxy_to_tileid
        tid = zxy_to_tileid(z, x, y)
        i = bisect.bisect_right(self.starts, tid) - 1
        if i < 0:
            return None
        start, off, ln, run = self.entries[i]
        return os.pread(self.fd, ln, off) if tid < start + run else None

    def metadata(self):
        return self.meta

    def close(self):
        os.close(self.fd)


class ZxyBackend(TileBackend):
    def __init__(self, root: str):
        self.root = root

    def get_tile(self, z, x, y):
        p = os.path.join(self.root, str(z), str(x), f"{y}.pbf")
        if not os.path.realpath(p).startswith(os.path.realpath(self.root)):
            return None
        if os.path.exists(p):
            with open(p, "rb") as f:
                return f.read()
        return None

    def metadata(self):
        p = os.path.join(self.root, "metadata.json")
        if os.path.exists(p):
            with open(p) as f:
                return json.load(f)
        return {}


def open_backend(path: str) -> TileBackend:
    if path.endswith(".mbtiles"):
        return MbtilesBackend(path)
    if path.endswith(".pmtiles"):
        return PmtilesBackend(path)
    if os.path.isdir(path):
        return ZxyBackend(path)
    raise ValueError(f"unsupported tile container: {path}")


def tile_key(m: re.Match) -> tuple[int, int, int] | None:
    """(z, x, y) of a matched tile path, None when outside the tile
    pyramid; no more than 10 digits (2^32) are ever parsed."""
    if max(len(g) for g in m.groups()[:3]) > 10:
        return None
    z, x, y = (int(g) for g in m.groups()[:3])
    if z > MAX_ZOOM or x >= 1 << z or y >= 1 << z:
        return None
    return z, x, y


class ServeMetrics:
    """Tile request counters; every request runs on one thread, so
    plain ints need no lock."""

    def __init__(self):
        self.requests = self.hits = self.misses = self.errors = 0
        self.latency = [0] * (len(LATENCY_BUCKETS_MS) + 1)

    def record(self, status: int, seconds: float) -> None:
        self.requests += 1
        self.hits += status == 200
        self.misses += status == 204
        self.errors += status >= 400
        self.latency[bisect.bisect_left(LATENCY_BUCKETS_MS,
                                        1e3 * seconds)] += 1

    def as_dict(self) -> dict:
        bounds = [str(b) for b in LATENCY_BUCKETS_MS] + ["+Inf"]
        return {"requests": self.requests, "hits": self.hits,
                "misses": self.misses, "errors": self.errors,
                "latency_ms": dict(zip(bounds, self.latency))}


class _Request:
    """One connection in TileServer's loop: its request head as it
    arrives, then the reply the handler wrote, as it leaves."""

    __slots__ = ("sock", "addr", "deadline", "head", "reply", "status",
                 "started")

    def __init__(self, sock, addr):
        self.sock, self.addr = sock, addr
        self.deadline = time.monotonic() + REQUEST_TIMEOUT_S
        self.head = bytearray()
        self.reply = None  # memoryview of the bytes still to send
        self.status = None  # set for tile requests, which /metrics counts
        self.started = 0.0


def _head_ends(head: bytearray, start: int) -> bool:
    """A blank line (CRLF or bare LF, as http.client accepts) at or
    after `start` ends the request head."""
    return head.find(b"\n\r\n", start) >= 0 or head.find(b"\n\n", start) >= 0


def make_handler(backend: TileBackend, compressed: bool = True,
                 static_dir: str | None = None):

    class Handler(BaseHTTPRequestHandler):
        """Runs on a `_Request` whose head TileServer has read, as
        socketserver's DatagramRequestHandler runs on a datagram: it
        parses the head from memory and writes the reply to memory."""

        def setup(self):
            self.rfile = io.BytesIO(self.request.head)
            self.wfile = io.BytesIO()

        def finish(self):
            self.request.reply = memoryview(self.wfile.getvalue())

        def log_message(self, *a):  # quiet
            pass

        def handle(self):
            self.request.started = time.perf_counter()
            super().handle()

        def _send_json(self, obj) -> None:
            body = json.dumps(obj).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_static(self) -> bool:
            """Serve a file under static_dir (reference server.cpp
            default_resource) — canonical-path check blocks traversal."""
            if static_dir is None:
                return False
            rel = self.path.lstrip("/") or "index.html"
            root = os.path.realpath(static_dir)
            full = os.path.realpath(os.path.join(root, rel))
            if not full.startswith(root + os.sep) or not os.path.isfile(full):
                return False
            with open(full, "rb") as f:
                body = f.read()
            ctype = {"html": "text/html", "js": "text/javascript",
                     "css": "text/css", "json": "application/json",
                     "png": "image/png"}.get(full.rsplit(".", 1)[-1],
                                             "application/octet-stream")
            self.send_response(200)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return True

        def _send_tile(self, m: re.Match) -> int:
            key = tile_key(m)
            if key is None:
                self.send_error(404)
                return 404
            try:
                data = backend.get_tile(*key)
            except Exception:  # one bad request must not stop the server
                self.server.handle_error(self.request, self.client_address)
                self.send_error(500)
                return 500
            if data is None:
                self.send_response(204)
                self.end_headers()
                return 204
            self.send_response(200)
            self.send_header("Content-Type",
                             "application/vnd.mapbox-vector-tile")
            if compressed:
                self.send_header("Content-Encoding", "gzip")
            self.send_header("Content-Length", str(len(data)))
            self.send_header("Access-Control-Allow-Origin", "*")
            self.end_headers()
            self.wfile.write(data)
            return 200

        def do_GET(self):
            if self.path == "/metrics":
                self._send_json(self.server.metrics.as_dict())
                return
            # /metadata = the reference server route (server.cpp:96);
            # /metadata.json kept for compatibility with earlier rounds
            if self.path in ("/metadata.json", "/metadata"):
                self._send_json(backend.metadata())
                return
            m = TILE_RE.match(self.path)
            if m:
                self.request.status = self._send_tile(m)
            elif not self._send_static():
                self.send_response(404)
                self.end_headers()

    return Handler


class TileServer(HTTPServer):
    """HTTPServer whose serve_forever serves every connection on the
    calling thread without waiting on any one client (see the module
    docstring); shutdown() keeps socketserver's contract."""

    # the loop accepts one connection per turn; at socketserver's
    # default of 5, eight overlapping clients met 1 s SYN retries
    request_queue_size = 128

    def __init__(self, address, handler, backend: TileBackend):
        self.backend = backend  # closed by server_close, also on a failed bind
        self.metrics = ServeMetrics()
        self._stop = False
        self._stopped = threading.Event()
        super().__init__(address, handler)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._stopped.clear()
        # open connections, accepted in order
        conns: dict[socket.socket, _Request] = {}
        try:
            with _Selector() as sel:
                sel.register(self, selectors.EVENT_READ)
                while not self._stop:
                    wait = poll_interval
                    if conns:
                        first = min(r.deadline for r in conns.values())
                        wait = max(0.0, min(wait, first - time.monotonic()))
                    for key, _ in sel.select(wait):
                        if key.fileobj is self:
                            self._accept(sel, conns)
                        elif key.data.reply is None:
                            self._read(sel, conns, key.data)
                        else:
                            self._send(sel, conns, key.data)
                    now = time.monotonic()
                    for r in [r for r in conns.values() if r.deadline <= now]:
                        self._close(sel, conns, r)
        finally:
            for conn in conns:
                self.shutdown_request(conn)
            self._stop = False
            self._stopped.set()

    def _accept(self, sel, conns) -> None:
        try:
            conn, addr = self.get_request()
            conn.setblocking(False)
        except OSError:
            return
        conns[conn] = r = _Request(conn, addr)
        sel.register(conn, selectors.EVENT_READ, r)

    def _read(self, sel, conns, r: _Request) -> None:
        try:
            data = r.sock.recv(MAX_HEAD_BYTES + 1 - len(r.head))
        except BlockingIOError:
            return
        except OSError:
            self._close(sel, conns, r)
            return
        start = max(0, len(r.head) - 2)
        r.head += data
        if data and not _head_ends(r.head, start):
            if len(r.head) > MAX_HEAD_BYTES:
                self._close(sel, conns, r)
            return  # more to come, until the deadline
        if not r.head:  # closed before sending anything
            self._close(sel, conns, r)
            return
        # a complete head, or what came before the client's EOF
        try:
            self.finish_request(r, r.addr)
        except Exception:
            self.handle_error(r.sock, r.addr)
            self._close(sel, conns, r)
            return
        r.deadline = time.monotonic() + REQUEST_TIMEOUT_S
        sel.modify(r.sock, selectors.EVENT_WRITE, r)
        self._send(sel, conns, r)

    def _send(self, sel, conns, r: _Request) -> None:
        try:
            n = r.sock.send(r.reply)
        except BlockingIOError:
            return
        except OSError:
            self._close(sel, conns, r)
            return
        r.reply = r.reply[n:]
        if r.reply:
            r.deadline = time.monotonic() + REQUEST_TIMEOUT_S
            return
        if r.status is not None:
            self.metrics.record(r.status, time.perf_counter() - r.started)
        self._close(sel, conns, r)

    def _close(self, sel, conns, r: _Request) -> None:
        sel.unregister(r.sock)
        del conns[r.sock]
        self.shutdown_request(r.sock)

    def shutdown(self) -> None:
        """Stop the serve_forever loop and wait until it has stopped."""
        self._stop = True
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self.backend.close()


def serve(path: str, host: str = "127.0.0.1", port: int = 8080,
          compressed: bool = True,
          static_dir: str | None = None) -> TileServer:
    """Build (but don't run) the server — call .serve_forever()."""
    backend = open_backend(path)
    return TileServer((host, port),
                      make_handler(backend, compressed, static_dir), backend)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tilemaker_ray.serve")
    ap.add_argument("container", help=".mbtiles, .pmtiles or z/x/y dir")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8080)
    ap.add_argument("--no-gzip-header", action="store_true",
                    help="tiles stored uncompressed")
    ap.add_argument("--static", default=None,
                    help="path of static files (reference server flag)")
    args = ap.parse_args(argv)
    srv = serve(args.container, args.host, args.port,
                compressed=not args.no_gzip_header,
                static_dir=args.static)
    print(f"serving {args.container} on http://{args.host}:{args.port}"
          f"/{{z}}/{{x}}/{{y}}.pbf")
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
