"""GUI-equivalent HTTP wrapper (serve.py; ref gui.py:44-58)."""

import json
import threading
import urllib.request

import pytest


@pytest.fixture(scope="module")
def server():
    from phenobert_ray.serve import build_state, make_server

    srv = make_server("127.0.0.1", 0, build_state())  # mini dag, dict-only
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
    import socket
    from urllib.parse import urlsplit

    u = urlsplit(base)
    with socket.create_connection((u.hostname, u.port), timeout=10) as s:
        s.sendall(f"POST /annotate HTTP/1.1\r\nHost: {u.netloc}\r\n"
                  f"Content-Type: text/plain\r\nContent-Length: {length}\r\n"
                  f"\r\n".encode())
        status_line = s.makefile("rb").readline().decode()
    return int(status_line.split()[1])


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
