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
  POST /annotate    body = JSON {"text": ...} or raw text;
                    ?format=tsv returns the reference TSV lines
                    (util.py:1199-1209), default JSON rows
  GET  /health      {"status": "ok"}

A request body over ``MAX_BODY_BYTES`` is refused with 413 and a malformed
or negative ``Content-Length`` with 400, before any of the body is read.
A body that is not valid UTF-8 is refused with 400: the returned start/end
offsets must index the string the client sent, not a repaired copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MAX_BODY_BYTES = 1 << 20

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


def make_handler(state):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, code: int, body: str, ctype: str) -> None:
            data = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", f"{ctype}; charset=utf-8")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):  # noqa: N802 (stdlib API)
            if self.path.split("?")[0] == "/health":
                self._send(200, json.dumps({"status": "ok"}),
                           "application/json")
            elif self.path.split("?")[0] == "/":
                self._send(200, _PAGE, "text/html")
            else:
                self._send(404, json.dumps({"error": "not found"}),
                           "application/json")

        def do_POST(self):  # noqa: N802
            path, _, query = self.path.partition("?")
            if path != "/annotate":
                self._send(404, json.dumps({"error": "not found"}),
                           "application/json")
                return
            try:
                n = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                n = -1
            if n < 0:
                self._send(400, json.dumps({"error": "bad Content-Length"}),
                           "application/json")
                return
            if n > MAX_BODY_BYTES:
                self._send(413, json.dumps({"error": "body over "
                                            f"{MAX_BODY_BYTES} bytes"}),
                           "application/json")
                return
            try:
                raw = self.rfile.read(n).decode("utf-8")
            except UnicodeDecodeError:
                self._send(400, json.dumps({"error": "body is not UTF-8"}),
                           "application/json")
                return
            ctype = (self.headers.get("Content-Type") or "").split(";")[0]
            if ctype == "application/json":
                try:
                    text = json.loads(raw).get("text", "")
                except (json.JSONDecodeError, AttributeError):
                    self._send(400, json.dumps({"error": "bad json"}),
                               "application/json")
                    return
            elif ctype == "application/x-www-form-urlencoded":
                from urllib.parse import parse_qs

                text = (parse_qs(raw).get("text") or [""])[0]
            else:
                text = raw
            if not isinstance(text, str):
                self._send(400, json.dumps({"error": "text must be a "
                                            "string"}), "application/json")
                return
            # the reference GUI flattens newlines before annotating
            # (gui.py:47); replace, never strip — stripping would shift
            # every returned start/end off the client's original string
            text = text.replace("\n", " ")
            if not text.strip():
                self._send(400, json.dumps({"error": "empty text"}),
                           "application/json")
                return
            try:
                rows = _annotations(text, state)
            except Exception as e:  # malformed checkpoint, scorer crash …
                # a dead handler thread drops the socket with no status
                # line; return a real 500 instead
                self._send(500, json.dumps({"error": f"{type(e).__name__}: {e}"}),
                           "application/json")
                return
            if "format=tsv" in query:
                self._send(200, _tsv(rows), "text/plain")
            else:
                self._send(200, json.dumps({"annotations": rows}),
                           "application/json")

        def log_message(self, fmt, *args):  # quiet by default
            if os.environ.get("PHENOBERT_SERVE_VERBOSE"):
                super().log_message(fmt, *args)

    return Handler


def make_server(host: str, port: int, state) -> ThreadingHTTPServer:
    return ThreadingHTTPServer((host, port), make_handler(state))


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
