"""GUI-equivalent HTTP wrapper (reference gui.py:44-58).

The reference ships a tkinter window whose single action calls
``api.annotate_text`` on the textarea contents (gui.py:44-58).  This
module is that surface for a headless deployment: a tiny stdlib HTTP
server over the same per-process API state — a form page, a JSON/TSV
annotate endpoint, and a health probe.  No Ray session: like the
reference GUI it annotates one text per request in-process.

Usage:
  python -m phenobert_ray.serve [--port 8765] [--model-dir builtin]
      [--ner builtin] [--dict <path>]

Endpoints:
  GET  /            minimal HTML form (textarea + Annotate button)
  POST /annotate    body = JSON {"text": ...}, form-encoded text= or raw
                    text; ?format=tsv returns the reference TSV lines
                    (util.py:1199-1209), default JSON rows
  GET  /health      {"status": "ok"}

Transport: one single-threaded asyncio event loop serves every connection
on non-blocking sockets (``loop.sock_recv``/``sock_sendall``; asyncio's
stream server was ~9% slower on kgperf's serve_ner).  A connection
carries one request: the loop reads its head and body without blocking,
runs the annotate call inline, writes one HTTP/1.0 response and closes the
connection.  Annotate calls therefore run one at a time, in the order
their requests finish arriving.  The kernel held the GIL for its whole
call under a thread per connection too, so the loop loses no parallelism;
what it saves is a thread start and the GIL hand-offs per request.  The
trade-off: a request that arrives while a large one is being annotated
waits for the rest of that call, where threads interleaved them in 5 ms
GIL slices.  Measured on a 4-CPU host, a small request sent while one
64 KiB request was annotated (0.44 s, builtin scorer and NER tagger)
waited 0.39 s, against a median of 41 ms with a thread per connection;
behind one 1 MiB request (30 s, dictionary only: overlap resolution is
quadratic in a text's matches) it waited 30 s, against a median of 21 ms.

Head lines may end in CRLF or a bare LF, and a header line that starts
with a space or tab continues the one before it, as http.server read them.
Each request is refused before more of it is read:
  - a head (request line and headers, through the blank line that ends
    them) over ``MAX_HEAD_BYTES``: 431, with no byte read past the limit;
  - a malformed request or header line: 400; a method other than GET or
    POST: 501;
  - a malformed or negative ``Content-Length``: 400; one over
    ``MAX_BODY_BYTES``: 413.  A missing one means an empty body.
A body that is not valid UTF-8 is refused with 400: the returned start/end
offsets must index the string the client sent, not a repaired copy.  A
connection gets ``DEADLINE_S`` to send its whole request and take its whole
response; past it the connection is closed without an answer, so a stalled
client holds one coroutine and one socket until then and never the loop.
The deadline counts loop time outside annotate calls only: a client whose
bytes arrived while the loop was annotating a request was not slow.

``PHENOBERT_SERVE_VERBOSE`` set and non-empty logs one stderr line per
answered request: method, path, status and milliseconds from accept.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import socket
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus

MAX_BODY_BYTES = 1 << 20
MAX_HEAD_BYTES = 64 << 10
DEADLINE_S = 10.0

_JSON = "application/json"

_PAGE = """<!doctype html>
<title>phenobert_ray</title>
<h1>phenobert_ray annotate</h1>
<form method="post" action="/annotate?format=tsv">
<p><textarea name="text" rows="12" cols="80"
 placeholder="Enter your free text here"></textarea></p>
<p><button type="submit">Annotate</button></p>
</form>
"""


def build_state(dict_path: str | None = None, model_dir: str | None = None,
                ner_path: str | None = None):
    """(dag, scorer, ner) loaded once at startup — the reference GUI's
    import-time globals (api.py:18-24) — through the CLI's set-up
    (``assets.loader.resolve_entry``) and the pipeline's model loader."""
    from .assets.loader import resolve_entry
    from .standins import build_models

    dag, cfg = resolve_entry(dict_path, model_dir, ner_path)
    return (dag, *build_models(dag, cfg))


def _annotations(text: str, state) -> list[dict]:
    from .linker import annotate_text

    dag, scorer, ner = state
    return [
        {"start": a.start, "end": a.end, "mention": a.mention,
         "hpo_id": a.hpo_id, "score": round(float(a.score), 2),
         "negated": bool(a.negated)}
        for a in annotate_text(text, dag, scorer=scorer, ner=ner)
    ]


def _tsv(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        line = (f"{r['start']}\t{r['end']}\t{r['mention']}\t{r['hpo_id']}"
                f"\t{r['score']:.2f}")
        if r["negated"]:
            line += "\tNeg"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def _error(status: int, message: str) -> tuple[int, str, str]:
    return status, json.dumps({"error": message}), _JSON


def route(method: str, target: str, headers: dict, body: bytes,
          state) -> tuple[int, str, str]:
    """``(status, body, content type)`` answering one request whose head
    passed the transport's checks.  ``headers`` maps lower-cased names to
    values; ``body`` is the whole body of a POST and empty otherwise."""
    path, _, query = target.partition("?")
    if method == "GET":
        if path == "/health":
            return 200, json.dumps({"status": "ok"}), _JSON
        if path == "/":
            return 200, _PAGE, "text/html"
        return _error(404, "not found")
    if method != "POST":
        return _error(501, f"unsupported method {method}")
    if path != "/annotate":
        return _error(404, "not found")
    try:
        raw = body.decode("utf-8")
    except UnicodeDecodeError:
        return _error(400, "body is not UTF-8")
    ctype = headers.get("content-type", "").split(";")[0]
    if ctype == "application/json":
        try:
            text = json.loads(raw).get("text", "")
        except (json.JSONDecodeError, AttributeError):
            return _error(400, "bad json")
    elif ctype == "application/x-www-form-urlencoded":
        from urllib.parse import parse_qs

        text = (parse_qs(raw).get("text") or [""])[0]
    else:
        text = raw
    if not isinstance(text, str):
        return _error(400, "text must be a string")
    # the reference GUI flattens newlines before annotating (gui.py:47);
    # replace, never strip — stripping would shift every returned
    # start/end off the client's original string
    text = text.replace("\n", " ")
    if not text.strip():
        return _error(400, "empty text")
    try:
        rows = _annotations(text, state)
    except Exception as e:  # malformed checkpoint, scorer crash …
        # an exception escaping the connection drops the socket with no
        # status line; return a real 500 instead
        return _error(500, f"{type(e).__name__}: {e}")
    if "format=tsv" in query:
        return 200, _tsv(rows), "text/plain"
    return 200, json.dumps({"annotations": rows}), _JSON


class _Refused(Exception):
    """A request answered from its head alone: ``args`` = (status, message)."""


# the blank line that ends a head, after CRLF or bare LF line ends
_HEAD_END = re.compile(rb"\r?\n\r?\n")


async def _recv(loop, conn: socket.socket, n: int) -> bytes:
    chunk = await loop.sock_recv(conn, n)
    if not chunk:
        raise ConnectionAbortedError("client closed mid-request")
    return chunk


async def _read_head(loop, conn: socket.socket) -> tuple[bytes, bytes]:
    """``(head, start of the body)``: reads until the blank line that ends
    the head, and never more than ``MAX_HEAD_BYTES`` in all."""
    buf = bytearray()
    seen = 0
    while (end := _HEAD_END.search(buf, max(0, seen - 3))) is None:
        if len(buf) >= MAX_HEAD_BYTES:
            raise _Refused(431, f"request head over {MAX_HEAD_BYTES} bytes")
        seen = len(buf)
        buf += await _recv(loop, conn, MAX_HEAD_BYTES - seen)
    return bytes(buf[:end.start()]), bytes(buf[end.end():])


def _parse_head(head: bytes) -> tuple[str, str, dict]:
    """``(method, target, headers)``; ``headers`` maps lower-cased names to
    the first value sent, with folded continuation lines joined."""
    lines = head.decode("latin-1").split("\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _Refused(400, "bad request line")
    headers: dict = {}
    last = None  # the header a continuation line extends
    for line in lines[1:]:
        line = line.rstrip("\r")
        if line[:1] in (" ", "\t") and last is not None:
            headers[last] = f"{headers[last]} {line.strip()}".strip()
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _Refused(400, "bad header line")
        name = name.strip().lower()
        last = None if name in headers else name
        headers.setdefault(name, value.strip())
    return parts[0], parts[1], headers


async def _read_body(loop, conn: socket.socket, method: str, headers: dict,
                     body: bytes) -> bytes:
    """The whole body of a POST, of which ``body`` arrived with the head;
    empty for any other method."""
    if method != "POST":
        return b""
    try:
        n = int(headers.get("content-length") or 0)
    except ValueError:
        n = -1
    if n < 0:
        raise _Refused(400, "bad Content-Length")
    if n > MAX_BODY_BYTES:
        raise _Refused(413, f"body over {MAX_BODY_BYTES} bytes")
    buf = bytearray(body[:n])
    while len(buf) < n:
        buf += await _recv(loop, conn, n - len(buf))
    return bytes(buf)


def _response(status: int, body: str, ctype: str) -> bytes:
    data = body.encode("utf-8")
    return (f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
            f"Date: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: {ctype}; charset=utf-8\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1") + data


class AnnotateServer:
    """The server ``make_server`` returns, with ``socketserver``'s surface:
    ``server_address`` is bound on construction, ``serve_forever()`` runs
    the event loop until ``shutdown()`` (from another thread) returns, and
    ``server_close()`` then closes the listening socket."""

    def __init__(self, host: str, port: int, state):
        self.state = state
        self.socket = socket.create_server((host, port))
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._lock = threading.Lock()
        self._running = None  # (loop, stop event) while serve_forever runs
        self._shutdown_request = False
        self._is_shut_down = threading.Event()
        self._busy_s = 0.0  # loop time spent inside route() calls

    def serve_forever(self) -> None:
        self._is_shut_down.clear()
        try:
            asyncio.run(self._serve())
        finally:
            with self._lock:
                self._running = None
                self._shutdown_request = False
            self._is_shut_down.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` and wait until its loop has exited; a
        connection still open is closed without a response."""
        with self._lock:
            self._shutdown_request = True
            if self._running is not None:
                loop, stop = self._running
                loop.call_soon_threadsafe(stop.set)
        self._is_shut_down.wait()

    def server_close(self) -> None:
        self.socket.close()

    async def _serve(self) -> None:
        stop = asyncio.Event()
        with self._lock:
            if self._shutdown_request:
                return
            self._running = (asyncio.get_running_loop(), stop)
        accepting = asyncio.create_task(self._accept())
        try:
            await stop.wait()
        finally:
            accepting.cancel()
        # asyncio.run then cancels the connections still open

    async def _accept(self) -> None:
        loop = asyncio.get_running_loop()
        open_conns: set = set()  # the loop holds tasks weakly
        while True:
            try:
                conn, _ = await loop.sock_accept(self.socket)
            except OSError:  # out of descriptors, client gone: retry
                await asyncio.sleep(0.1)
                continue
            task = loop.create_task(self._connection(loop, conn))
            open_conns.add(task)
            task.add_done_callback(open_conns.discard)

    def _deadline(self, loop, task: asyncio.Task):
        """Cancel ``task``, a connection, once it has had ``DEADLINE_S``
        of loop time outside ``route`` calls: a client whose bytes arrived
        while the loop annotated another request was not slow.  The
        cancelled connection closes its socket without a response.
        Returns a function that disarms the deadline."""
        t0, busy0 = loop.time(), self._busy_s

        def check() -> None:
            nonlocal timer
            left = DEADLINE_S - (loop.time() - t0) + (self._busy_s - busy0)
            if left > 0:
                timer = loop.call_later(left, check)
            else:
                task.cancel()

        timer = loop.call_later(DEADLINE_S, check)
        return lambda: timer.cancel()

    async def _connection(self, loop, conn: socket.socket) -> None:
        t0 = time.perf_counter()
        method = target = "-"
        disarm = self._deadline(loop, asyncio.current_task())
        try:
            try:
                head, body = await _read_head(loop, conn)
                method, target, headers = _parse_head(head)
                body = await _read_body(loop, conn, method, headers, body)
            except _Refused as e:
                reply = _error(*e.args)
            else:
                t = loop.time()
                reply = route(method, target, headers, body, self.state)
                self._busy_s += loop.time() - t
            if os.environ.get("PHENOBERT_SERVE_VERBOSE"):
                print(f"{method} {target.partition('?')[0]} {reply[0]} "
                      f"{1000 * (time.perf_counter() - t0):.2f}ms",
                      file=sys.stderr, flush=True)
            await loop.sock_sendall(conn, _response(*reply))
        except ConnectionError:
            pass  # a client that went away gets no response
        finally:
            disarm()
            conn.close()


def make_server(host: str, port: int, state) -> AnnotateServer:
    return AnnotateServer(host, port, state)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="phenobert_ray.serve")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8765)
    ap.add_argument("--dict", dest="dict_path", default=None)
    ap.add_argument("-m", "--model-dir", default=None,
                    help="'builtin' selects the packaged trained weights")
    ap.add_argument("--ner", dest="ner_path", default=None,
                    help="'builtin' selects the packaged C1 tagger")
    args = ap.parse_args(argv)
    try:
        state = build_state(args.dict_path, args.model_dir, args.ner_path)
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return 2
    srv = make_server(args.host, args.port, state)
    print(f"serving on http://{args.host}:{srv.server_address[1]}",
          file=sys.stderr)
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
