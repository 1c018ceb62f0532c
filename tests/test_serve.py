"""GUI-equivalent HTTP wrapper (serve.py; ref gui.py:44-58)."""

import json
import socket
import threading
import time
import urllib.request

import pytest


@pytest.fixture(scope="module")
def state():
    from phenobert_ray.serve import build_state

    return build_state()  # mini dag, dict-only


@pytest.fixture(scope="module")
def server(state):
    from phenobert_ray.serve import make_server

    srv = make_server("127.0.0.1", 0, state)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    yield base
    srv.shutdown()
    srv.server_close()


def _post(url: str, body: bytes, ctype: str):
    req = urllib.request.Request(url, data=body,
                                 headers={"Content-Type": ctype})
    with urllib.request.urlopen(req) as r:
        return r.status, r.read().decode()


def test_health_and_form(server):
    with urllib.request.urlopen(server + "/health") as r:
        assert json.loads(r.read()) == {"status": "ok"}
    with urllib.request.urlopen(server + "/") as r:
        assert "textarea" in r.read().decode()


def test_annotate_json_matches_api(server):
    text = "Patient presents with atrial septal defect but no seizure."
    status, body = _post(server + "/annotate",
                         json.dumps({"text": text}).encode(),
                         "application/json")
    assert status == 200
    rows = json.loads(body)["annotations"]
    from phenobert_ray.api import annotate_text

    expect = annotate_text(text)
    assert [(r["start"], r["end"], r["hpo_id"], r["negated"])
            for r in rows] == [(a.start, a.end, a.hpo_id, a.negated)
                               for a in expect]
    assert any(r["negated"] for r in rows)  # "no seizure"


def test_annotate_tsv_matches_reference_format(server):
    text = "hearing impairment."
    status, body = _post(server + "/annotate?format=tsv",
                         text.encode(), "text/plain")
    assert status == 200
    from phenobert_ray.api import annotate_text

    assert body == annotate_text(text, as_tsv=True)
    cols = body.strip().split("\t")
    assert len(cols) == 5 and cols[3].startswith("HP:")


def test_annotate_form_encoded(server):
    from urllib.parse import urlencode

    status, body = _post(server + "/annotate",
                         urlencode({"text": "seizure and ptosis"}).encode(),
                         "application/x-www-form-urlencoded")
    assert status == 200
    assert json.loads(body)["annotations"]


def test_empty_text_rejected(server):
    import urllib.error

    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(server + "/annotate", b"  ", "text/plain")
    assert ei.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as ei:
        _post(server + "/nope", b"x", "text/plain")
    assert ei.value.code == 404


def test_non_utf8_body_rejected(server):
    """A body that is not UTF-8 is a 400, not text annotated with U+FFFD
    in place of the bad bytes (its offsets would not index the client's
    string)."""
    import urllib.error

    for body, ctype in ((b"seizure \xff", "text/plain"),
                        (b'{"text": "\xff"}', "application/json")):
        with pytest.raises(urllib.error.HTTPError) as ei:
            _post(server + "/annotate", body, ctype)
        assert ei.value.code == 400
        assert "UTF-8" in json.loads(ei.value.read())["error"]


def test_annotate_rejects_non_string_json_text(server):
    """{"text": null} / numbers / lists must return a clean 400, not an
    AttributeError traceback that drops the connection (review r4)."""
    import urllib.error

    for payload in ({"text": None}, {"text": 7}, {"text": ["a"]}):
        try:
            status, body = _post(server + "/annotate",
                                 json.dumps(payload).encode(),
                                 "application/json")
        except urllib.error.HTTPError as e:
            status, body = e.code, e.read().decode()
        assert status == 400
        assert "string" in json.loads(body)["error"]


def test_builtin_without_assets_fails_loudly(monkeypatch):
    """--model-dir/--ner builtin on a checkout without packaged weights
    must raise at startup, never serve silently-degraded dictionary-only
    output (review r4)."""
    import phenobert_ray.assets.loader as loader
    from phenobert_ray.serve import build_state, main

    monkeypatch.setattr(loader, "trained_model_dir", lambda: None)
    with pytest.raises(FileNotFoundError):
        build_state(model_dir="builtin")
    with pytest.raises(FileNotFoundError):
        build_state(ner_path="builtin")
    assert main(["--model-dir", "builtin", "--port", "0"]) == 2
    # an explicit weights path that does not exist fails the same way
    with pytest.raises(FileNotFoundError, match="model dir not found"):
        build_state(model_dir="/nonexistent")
    with pytest.raises(FileNotFoundError, match="ner tagger not found"):
        build_state(ner_path="/missing.pt")
    assert main(["--ner", "/missing.pt", "--port", "0"]) == 2


def test_offsets_preserved_with_leading_whitespace(server):
    """start/end must index into the CLIENT's original string: newline
    flattening is len-preserving and nothing is stripped (review r4)."""
    text = "\n  Patient shows atrial septal defect."
    status, body = _post(server + "/annotate",
                         json.dumps({"text": text}).encode(),
                         "application/json")
    assert status == 200
    rows = json.loads(body)["annotations"]
    assert rows, "expected at least one annotation"
    for r in rows:
        assert text[r["start"]:r["end"]].lower() == r["mention"].lower()


def test_builtin_serves_trained_weights_not_standin():
    """--model-dir builtin must load the packaged CNN checkpoints through
    load_torch_scorer, exactly like the pipeline workers — a bare
    StandInScorer ignores model_dir and silently serves the untrained
    hash stand-in (review r4)."""
    pytest.importorskip("numpy")
    from phenobert_ray.assets.loader import trained_model_dir
    from phenobert_ray.serve import build_state

    if trained_model_dir() is None:
        pytest.skip("no packaged weights in this checkout")
    dag, scorer, ner = build_state(model_dir="builtin")
    # the trained path returns a NumpyModelScorer (l1.pt present), never
    # the hash-embedding StandInScorer
    assert type(scorer).__name__ != "StandInScorer"
    assert hasattr(scorer, "l1")


def test_scorer_exception_returns_500(server, monkeypatch):
    import urllib.error

    import phenobert_ray.serve as serve_mod

    def boom(text, state):
        raise RuntimeError("scorer exploded")

    monkeypatch.setattr(serve_mod, "_annotations", boom)
    try:
        status, body = _post(server + "/annotate", b"seizure", "text/plain")
    except urllib.error.HTTPError as e:
        status, body = e.code, e.read().decode()
    assert status == 500
    assert "scorer exploded" in json.loads(body)["error"]


def _raw_post(base: str, length: str) -> int:
    """Status of a POST /annotate that sends ``Content-Length: length``
    and no body at all, so the server must answer without reading one."""
    from urllib.parse import urlsplit

    u = urlsplit(base)
    return _raw(base, f"POST /annotate HTTP/1.1\r\nHost: {u.netloc}\r\n"
                f"Content-Type: text/plain\r\nContent-Length: {length}\r\n"
                f"\r\n".encode())[0]


def _connect(base: str) -> socket.socket:
    from urllib.parse import urlsplit

    u = urlsplit(base)
    return socket.create_connection((u.hostname, u.port), timeout=10)


def _raw(base: str, data: bytes) -> tuple[int, bytes]:
    """(status, body) of the response to ``data`` sent on a fresh
    connection and left open, read until the server closes it."""
    with _connect(base) as s:
        s.sendall(data)
        resp = s.makefile("rb").read()
    head, _, body = resp.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


@pytest.mark.parametrize("length,status", [("abc", 400), ("-1", 400),
                                           ("1e3", 400), (None, 413)],
                         ids=["non-integer", "negative", "float", "huge"])
def test_content_length_bounded_before_read(server, length, status):
    """A malformed or negative Content-Length is a 400 and one above
    MAX_BODY_BYTES a 413, each answered with a status line and without
    waiting for a body the client never sends."""
    from phenobert_ray.serve import MAX_BODY_BYTES

    if length is None:
        length = str(MAX_BODY_BYTES + 1)
    assert _raw_post(server, length) == status


def test_body_at_the_cap_is_read(server):
    """A body of exactly MAX_BODY_BYTES is still annotated."""
    from phenobert_ray.serve import MAX_BODY_BYTES

    body = b"seizure".ljust(MAX_BODY_BYTES)
    status, out = _post(server + "/annotate", body, "text/plain")
    assert status == 200 and json.loads(out)["annotations"]


def _stall(base: str) -> list[socket.socket]:
    """Two stalled connections: one that sends nothing and one that sends
    half of its declared body."""
    idle, half = _connect(base), _connect(base)
    half.sendall(b"POST /annotate HTTP/1.1\r\nContent-Type: text/plain\r\n"
                 b"Content-Length: 100\r\n\r\n" + b"x" * 50)
    return [idle, half]


def _closed(s: socket.socket) -> bool:
    """True once the server has closed ``s`` without sending anything."""
    try:
        return s.recv(1) == b""
    except ConnectionResetError:
        return True


def test_stalled_clients_do_not_block(server):
    """A client that stalls holds only its own connection: a third
    request is still answered at once."""
    stalled = _stall(server)
    try:
        time.sleep(0.05)  # both stalled requests are accepted first
        t0 = time.perf_counter()
        with urllib.request.urlopen(server + "/health", timeout=1) as r:
            assert r.status == 200
        assert time.perf_counter() - t0 < 1
    finally:
        for s in stalled:
            s.close()


def test_stalled_clients_closed_after_deadline(server, monkeypatch):
    import phenobert_ray.serve as serve_mod

    monkeypatch.setattr(serve_mod, "DEADLINE_S", 0.2)
    stalled = _stall(server)
    try:
        t0 = time.perf_counter()
        assert all(_closed(s) for s in stalled)
        assert time.perf_counter() - t0 < 5
    finally:
        for s in stalled:
            s.close()


@pytest.mark.parametrize("prefix", [b"GET /", b"GET / HTTP/1.1\r\nX-Pad: "],
                         ids=["request-line", "header"])
def test_head_over_limit_refused(server, prefix):
    """A head over MAX_HEAD_BYTES is a 431 answered as soon as the limit
    is passed, without waiting for the rest of the head."""
    from phenobert_ray.serve import MAX_HEAD_BYTES

    # send exactly the bytes the server reads before it refuses: unread
    # bytes at close would reset the connection under the response
    data = prefix.ljust(MAX_HEAD_BYTES, b"a")
    status, body = _raw(server, data)
    assert status == 431 and "head" in json.loads(body)["error"]


@pytest.mark.parametrize("line", [b"NONSENSE", b"GET /", b"GET / HTTP/2.0",
                                  b"GET / FTP/1.0 extra"])
def test_malformed_request_line_400(server, line):
    assert _raw(server, line + b"\r\n\r\n")[0] == 400


def test_unsupported_method_501(server):
    status, body = _raw(server, b"PUT /annotate HTTP/1.1\r\n"
                                b"Content-Length: 7\r\n\r\nseizure")
    assert status == 501 and "PUT" in json.loads(body)["error"]


def test_missing_content_length_is_empty_body(server):
    status, body = _raw(server, b"POST /annotate HTTP/1.1\r\n"
                                b"Content-Type: text/plain\r\n\r\n")
    assert status == 400 and json.loads(body)["error"] == "empty text"


def test_bare_lf_and_folded_head(server, state):
    """Heads with bare LF line ends, and folded header lines, are read as
    http.server read them."""
    from phenobert_ray.serve import _annotations

    assert _raw(server, b"GET /health HTTP/1.0\n\n")[0] == 200
    body = json.dumps({"text": "seizure"}).encode()
    status, out = _raw(server, b"POST /annotate HTTP/1.0\r\n"
                               b"Content-Type:\r\n application/json\n"
                               b"Content-Length: %d\n\n" % len(body) + body)
    assert status == 200
    assert json.loads(out)["annotations"] == _annotations("seizure", state)


def test_deadline_skips_time_spent_annotating(server, monkeypatch):
    """A request that arrives in full while the loop annotates another one
    for longer than DEADLINE_S is still answered: only a client's own
    stall counts against its deadline."""
    import phenobert_ray.serve as serve_mod

    real = serve_mod._annotations

    def slow(text, state):
        if text == "slow":
            time.sleep(0.6)
        return real(text, state)

    monkeypatch.setattr(serve_mod, "DEADLINE_S", 0.3)
    monkeypatch.setattr(serve_mod, "_annotations", slow)
    with _connect(server) as late:
        late.sendall(b"GET /health HTTP/1.0\r\n")
        time.sleep(0.05)  # accepted: its deadline runs from here
        blocker = threading.Thread(target=_raw, args=(
            server, b"POST /annotate HTTP/1.0\r\nContent-Length: 4\r\n"
                    b"\r\nslow"))
        blocker.start()
        time.sleep(0.15)  # the loop is inside the slow call
        late.sendall(b"\r\n")
        resp = late.makefile("rb").read()
    blocker.join(timeout=10)
    assert resp.startswith(b"HTTP/1.0 200 ")


def test_concurrent_requests_match_in_process(server, state):
    """4 threads × 50 mixed requests (JSON, form, tsv): every response is
    the in-process output for its own text."""
    from urllib.parse import urlencode

    from phenobert_ray.serve import _annotations, _tsv

    phrases = ["atrial septal defect", "seizure", "hearing impairment",
               "ptosis", "no seizure"]
    mismatches: list = []

    def client(k: int) -> None:
        for i in range(50):
            text = (f"Patient {k}-{i} shows {phrases[i % len(phrases)]} and "
                    f"{phrases[(i + k) % len(phrases)]}.")
            rows = _annotations(text, state)
            kind = (k + i) % 3
            if kind == 0:
                _, body = _post(server + "/annotate",
                                json.dumps({"text": text}).encode(),
                                "application/json")
                ok = json.loads(body)["annotations"] == rows
            elif kind == 1:
                _, body = _post(server + "/annotate",
                                urlencode({"text": text}).encode(),
                                "application/x-www-form-urlencoded")
                ok = json.loads(body)["annotations"] == rows
            else:
                _, body = _post(server + "/annotate?format=tsv",
                                text.encode(), "text/plain")
                ok = body == _tsv(rows)
            if not ok:
                mismatches.append(text)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")
def test_shutdown_stops_loop_then_close_frees_port(state, caplog):
    """shutdown() returns once the loop has exited, even with a stalled
    client connected; server_close() then closes the listening socket."""
    import logging

    from phenobert_ray.serve import make_server

    srv = make_server("127.0.0.1", 0, state)
    base = f"http://127.0.0.1:{srv.server_address[1]}"
    loop = threading.Thread(target=srv.serve_forever)
    loop.start()
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with urllib.request.urlopen(base + "/health", timeout=5) as r:
            assert r.status == 200
        stalled = _connect(base)
        time.sleep(0.05)
        stopper = threading.Thread(target=srv.shutdown)
        stopper.start()
        stopper.join(timeout=5)
        loop.join(timeout=5)
        assert not stopper.is_alive() and not loop.is_alive()
        assert _closed(stalled)
        stalled.close()
    assert caplog.records == []
    srv.server_close()
    with pytest.raises(ConnectionRefusedError):
        _connect(base)


def test_request_log_behind_verbose_switch(server, capfd, monkeypatch):
    import re

    monkeypatch.setenv("PHENOBERT_SERVE_VERBOSE", "1")
    with urllib.request.urlopen(server + "/health?x=1") as r:
        r.read()
    assert re.search(r"^GET /health 200 \d+\.\d\dms$", capfd.readouterr().err,
                     re.M)
    monkeypatch.delenv("PHENOBERT_SERVE_VERBOSE")
    with urllib.request.urlopen(server + "/health") as r:
        r.read()
    assert "/health" not in capfd.readouterr().err


def test_route_without_transport(state):
    """The routing is a plain function of (method, target, headers, body)."""
    from phenobert_ray.serve import _annotations, route

    assert route("GET", "/health", {}, b"", state)[0] == 200
    assert route("DELETE", "/", {}, b"", state)[0] == 501
    status, body, ctype = route("POST", "/annotate?format=tsv",
                                {"content-type": "text/plain"},
                                b"hearing impairment.", state)
    assert status == 200 and ctype == "text/plain"
    assert body.split("\t")[3] == _annotations("hearing impairment.",
                                               state)[0]["hpo_id"]
