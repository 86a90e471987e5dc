"""Service tests: HTTP endpoints, durability, and verdict consistency."""

import contextlib
import copy
import email.utils
import http.client
import io
import json
import logging
import os
import re
import socket
import stat
import sys
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
import uuid
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proctriage.ann import AnnConfig, ann_to_dict, init_network, train_ann
from proctriage.cli import main
from proctriage.datagen import GenConfig, generate_dataset, generate_process_list
from proctriage.dtree import TreeConfig, export_tree, train_tree, tree_to_dict
from proctriage.errors import ModelFormatError
from proctriage.features import (
    FeatureVector,
    Label,
    LabeledDataset,
    LabeledSample,
    ScalerParams,
    dataset_from_csv,
)
from proctriage.service import (
    MAX_BODY_BYTES,
    MODEL_FILENAME,
    SampleRecord,
    SampleStore,
    Service,
    ServiceConfig,
    _LABEL_PATH,
    _ROUTES,
    _Handler,
    load_model,
    make_server,
    read_model_file,
    record_from_dict,
    record_to_dict,
    submit_response,
)

GARBAGE = "complete nonsense, no header at all\n"
INF = float("inf")  # what a JSON number such as 1e999 parses to


def _toy_data():
    rows = [
        (200, 1, Label.TARGET), (150, 1, Label.TARGET), (90, 2, Label.TARGET),
        (30, 3, Label.SANDBOX), (25, 2, Label.SANDBOX), (40, 4, Label.SANDBOX),
    ]
    return LabeledDataset(tuple(
        LabeledSample(FeatureVector.from_counts(pc, uc), lab) for pc, uc, lab in rows))


def _toy_tree_doc():
    return tree_to_dict(train_tree(_toy_data(), TreeConfig(max_depth=3)))


def _toy_ann_doc():
    model = init_network(AnnConfig(seed=0))
    model.scaler = ScalerParams(mins=(9.0, 1.0, 2.0), maxs=(305.0, 17.0, 305.0))
    return ann_to_dict(model)


def _request(base, method, path, body=None, content_type="text/plain", token=None):
    """Return (status, parsed_body) without raising on HTTP errors."""
    data = None
    headers = {}
    if body is not None:
        data = body.encode("utf-8") if isinstance(body, str) else body
        headers["Content-Type"] = content_type
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    req = urllib.request.Request(base + path, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            raw = resp.read().decode("utf-8")
            status = resp.status
    except urllib.error.HTTPError as err:
        raw = err.read().decode("utf-8")
        status = err.code
    ctype = "json" if raw[:1] in ("{", "[") else "text"
    return status, json.loads(raw) if ctype == "json" else raw


def _serve(config):
    """Run a server on a free port; yields (base_url, service)."""
    service = Service(config)
    server = make_server(service)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, service
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def live(tmp_path):
    yield from _serve(ServiceConfig(data_dir=tmp_path, port=0))


@pytest.fixture
def strict_live(tmp_path):
    yield from _serve(ServiceConfig(data_dir=tmp_path, port=0, strict=True))


@pytest.fixture
def token_live(tmp_path):
    yield from _serve(ServiceConfig(data_dir=tmp_path, port=0, token="sesame"))


# -- submission ---------------------------------------------------------------

def test_submit_without_model(live, sandbox_host_text):
    base, _ = live
    status, doc = _request(base, "POST", "/v1/submit", sandbox_host_text)
    assert status == 200
    assert doc["id"]
    assert doc["verdict"] is None
    assert doc["parse_warnings"] == 0


def test_submit_then_verdict_with_model(live, sandbox_host_text, safe_host_text):
    base, _ = live
    status, info = _request(base, "POST", "/v1/model", json.dumps(_toy_tree_doc()),
                            content_type="application/json")
    assert status == 200
    assert info["active"] is True and info["kind"] == "dtree"

    status, doc = _request(base, "POST", "/v1/submit", sandbox_host_text)
    assert status == 200
    assert doc["verdict"] == "sandbox"
    assert doc["label"] == 1

    status, doc = _request(base, "POST", "/v1/submit", safe_host_text)
    assert doc["verdict"] == "safe"
    assert doc["label"] == 0
    assert 0.0 <= doc["probability"] <= 1.0


def test_classify_matches_submit(live, sandbox_host_text):
    base, _ = live
    _request(base, "POST", "/v1/model", json.dumps(_toy_tree_doc()),
             content_type="application/json")
    texts = [sandbox_host_text] + [generate_process_list(Label.TARGET, seed=s)
                                   for s in range(3)]
    for text in texts:
        _, sub = _request(base, "POST", "/v1/submit", text)
        _, cls = _request(base, "POST", "/v1/classify", text)
        assert cls["verdict"] == sub["verdict"]
        assert cls["probability"] == sub["probability"]


def test_classify_is_stateless(live, sandbox_host_text):
    base, service = live
    _request(base, "POST", "/v1/classify", sandbox_host_text)
    assert len(service.store) == 0


def test_garbage_stored_featureless_in_lenient_mode(live):
    base, service = live
    status, doc = _request(base, "POST", "/v1/submit", GARBAGE)
    assert status == 200
    assert doc["verdict"] is None
    record = service.store.get(doc["id"])
    assert record.features is None
    assert record.predicted is None
    assert record.raw_text == GARBAGE


def test_strict_mode_rejects_garbage(strict_live):
    base, service = strict_live
    status, doc = _request(base, "POST", "/v1/submit", GARBAGE)
    assert status == 422
    assert "error" in doc
    assert len(service.store) == 0


PS_NEGATIVE_PPID = "PID PPID USER CMD\n1 -5 root init\n"
PS_TWO_PID0 = "PID PPID USER CMD\n0 0 root idle\n0 0 root idle\n7 0 root init\n"
PS_AFTER_BANNER = "snapshot taken by agent\nPID PPID USER CMD\n1 0 root init\n7 1 alice bash\n"


@pytest.mark.parametrize("text, warnings", [(PS_NEGATIVE_PPID, 0), (PS_TWO_PID0, 1),
                                            (PS_AFTER_BANNER, 0)],
                         ids=["negative-ppid", "duplicate-pid0", "banner"])
def test_ps_listings_are_scored_and_stored(live, text, warnings):
    base, service = live
    status, cls = _request(base, "POST", "/v1/classify", text)
    assert status == 200
    assert cls["features"] is not None
    status, sub = _request(base, "POST", "/v1/submit", text)
    assert status == 200
    assert sub["parse_warnings"] == warnings
    assert service.store.get(sub["id"]).features == FeatureVector.from_dict(cls["features"])


def test_strict_mode_rejects_duplicate_ps_pid0_with_422(strict_live):
    base, service = strict_live
    for route in ("/v1/classify", "/v1/submit"):
        status, doc = _request(base, "POST", route, PS_TWO_PID0)
        assert status == 422
        assert doc["error"].startswith("MalformedRow: line 3")
    assert len(service.store) == 0


def test_empty_body_is_400(live):
    base, _ = live
    status, doc = _request(base, "POST", "/v1/submit", "")
    assert status == 400
    status, _ = _request(base, "POST", "/v1/submit", "   \n ")
    assert status == 400


def test_undecodable_body_is_400(live):
    base, _ = live
    status, _ = _request(base, "POST", "/v1/submit", b"\xff\xfe\xfd invalid")
    assert status == 400


def _port(base):
    return int(base.rsplit(":", 1)[1])


def _read_to_eof(sock):
    reply = b""
    while chunk := sock.recv(4096):
        reply += chunk
    return reply


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_bad_content_length_is_400_and_closes(live, length):
    base, _ = live
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
        sock.sendall(f"POST /v1/classify HTTP/1.1\r\nHost: t\r\n"
                     f"Content-Length: {length}\r\n\r\nbody".encode())
        reply = _read_to_eof(sock)  # the server must answer, then hang up
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length must be a non-negative integer" in reply


@pytest.mark.parametrize("length", [str(10**12), "9" * 5000], ids=["10^12", "5000-digits"])
def test_oversized_content_length_is_413_and_closes(live, length):
    base, _ = live
    smuggled = b"GET /v1/model HTTP/1.1\r\nHost: t\r\n\r\n"  # must not be served
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
        sock.sendall(f"POST /v1/classify HTTP/1.1\r\nHost: t\r\n"
                     f"Content-Length: {length}\r\n\r\n".encode() + smuggled)
        reply = _read_to_eof(sock)
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close\r\n" in reply
    assert f"body over {MAX_BODY_BYTES} bytes".encode() in reply
    assert reply.count(b"HTTP/1.1 ") == 1


def test_a_body_of_exactly_the_cap_is_read(live):
    base, _ = live
    request = f"POST /v1/nonsense HTTP/1.1\r\nHost: t\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n"
    assert _statuses_of(base, request + "x" * MAX_BODY_BYTES) == [404, 200]


def test_stalled_body_is_dropped_without_a_reply(live, monkeypatch, caplog):
    base, service = live
    assert _Handler.timeout is not None
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=5) as sock:
        sock.sendall(b"POST /v1/submit HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: 100\r\n\r\nonly ten b")
        assert _read_to_eof(sock) == b""
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(service.store) == 0


def test_body_cut_short_by_hangup_is_400(live):
    base, service = live
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
        sock.sendall(b"POST /v1/submit HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: 100\r\n\r\nonly ten b")
        sock.shutdown(socket.SHUT_WR)
        reply = _read_to_eof(sock)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"body shorter than Content-Length" in reply
    assert len(service.store) == 0


def _statuses_of(base, first, auth=""):
    """Send ``first`` and then GET /v1/model on one connection; every status
    the server sends back before it closes."""
    second = f"GET /v1/model HTTP/1.1\r\nHost: t\r\n{auth}Connection: close\r\n\r\n"
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
        sock.sendall(first.encode() + second.encode())
        reply = _read_to_eof(sock)
    return [int(code) for code in re.findall(rb"HTTP/1\.1 (\d{3}) ", reply)]


@pytest.mark.parametrize("first, status", [
    ("POST /v1/nonsense", 404), ("POST /v1/export.csv", 405),
    ("GET /v1/model", 200), ("GET /v1/samples", 200),
])
def test_a_body_the_reply_does_not_read_leaves_keep_alive_in_step(live, first, status):
    base, _ = live
    request = f"{first} HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nx"
    assert _statuses_of(base, request) == [status, 200]


def test_a_401_leaves_keep_alive_in_step(token_live):
    base, service = token_live
    request = "POST /v1/submit HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\nx"
    assert _statuses_of(base, request, auth="Authorization: Bearer sesame\r\n") == [401, 200]
    assert len(service.store) == 0


def test_bad_content_length_is_answered_before_auth_and_routing(token_live):
    base, _ = token_live
    request = "POST /v1/nonsense HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n"
    assert _statuses_of(base, request) == [400]  # then the connection closes


@pytest.mark.parametrize("request_head, status", [
    ("BREW /v1/model HTTP/1.1\r\nHost: t", 501),
    ("HEAD /v1/model HTTP/1.1\r\nHost: t", 501),
    ("GET /v1/model HTTP/1.1" + "\r\nX-Pad: 1" * 101, 431),
], ids=["unknown-method", "head", "too-many-headers"])
def test_errors_the_stdlib_raises_are_json_and_close(live, request_head, status):
    base, _ = live
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
        sock.sendall(f"{request_head}\r\n\r\nGET /v1/model HTTP/1.1\r\n\r\n".encode())
        head, _, body = _read_to_eof(sock).partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0].startswith(f"HTTP/1.1 {status} ".encode())
    assert b"Content-Type: application/json; charset=utf-8" in lines
    assert b"Connection: close" in lines
    if request_head.startswith("HEAD"):
        assert body == b""  # a reply to HEAD has no body
    else:
        assert set(json.loads(body)) == {"error"}  # and nothing after it


def test_a_request_line_without_a_readable_version_gets_a_json_body(live):
    base, _ = live
    for request_line, status, error in [
        (b"GET /v1/model HTTP/1.1 extra", 400, "Bad request version ('extra')"),
        (b"GET /v1/model HTTP/7.0", 505, "Invalid HTTP version (7.0)"),
    ]:
        with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
            sock.sendall(request_line + b"\r\n\r\n")
            head, _, body = _read_to_eof(sock).partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ".encode()), head
        assert b"Connection: close" in lines
        assert json.loads(body) == {"error": error}


@pytest.mark.parametrize("request_head, status, doc", [
    (b"GET /v1/model", 200, {"active": False}),  # HTTP/0.9 form: served, then closed
    (b"GET //v1/model HTTP/1.1\r\nConnection: close", 200, {"active": False}),
    (b"GET / x HTTP/1.1", 400, {"error": "Bad request syntax ('GET / x HTTP/1.1')"}),
    (b"POST /v1/model", 400, {"error": "Bad HTTP/0.9 request type ('POST')"}),
], ids=["http-0.9-get", "double-slash", "four-words", "http-0.9-post"])
def test_the_stdlib_request_line_rules_hold(live, request_head, status, doc):
    base, _ = live
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
        sock.sendall(request_head + b"\r\n\r\n")
        head, _, body = _read_to_eof(sock).partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode()), head
    assert json.loads(body) == doc


def test_duplicate_submissions_get_distinct_ids(live, sandbox_host_text):
    base, _ = live
    _, a = _request(base, "POST", "/v1/submit", sandbox_host_text)
    _, b = _request(base, "POST", "/v1/submit", sandbox_host_text)
    assert a["id"] != b["id"]


# -- auth ------------------------------------------------------------------------

def test_token_auth(tmp_path):
    service = Service(ServiceConfig(data_dir=tmp_path, port=0, token="sesame"))
    server = make_server(service)
    threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True).start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        status, _ = _request(base, "GET", "/v1/model")
        assert status == 401
        status, _ = _request(base, "GET", "/v1/model", token="wrong")
        assert status == 401
        status, _ = _request(base, "GET", "/v1/model", token="s\u00e9same")  # not ASCII
        assert status == 401
        status, doc = _request(base, "GET", "/v1/model", token="sesame")
        assert status == 200
        assert doc == {"active": False}
    finally:
        server.shutdown()
        server.server_close()


# -- response framing ------------------------------------------------------------

def test_keep_alive_requests_are_not_held_for_a_delayed_ack(live, sandbox_host_text):
    base, _ = live
    conn = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=10)
    try:
        t0 = time.perf_counter()
        for _ in range(100):  # a 40 ms delayed-ACK stall each would take 4 s
            conn.request("POST", "/v1/classify", body=sandbox_host_text.encode())
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["features"]
        assert time.perf_counter() - t0 < 2.0
    finally:
        conn.close()


def test_expect_100_continue_is_answered_before_the_body(live, sandbox_host_text):
    base, _ = live
    body = sandbox_host_text.encode()
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=1) as sock:
        sock.sendall(f"POST /v1/classify HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                     f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n\r\n".encode())
        interim = sock.recv(4096)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        reply = _read_to_eof(sock)
    assert reply.startswith(b"HTTP/1.1 200 ")
    assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["features"]


@pytest.mark.parametrize("request_head, status", [
    (f"POST /v1/classify HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}", 413),
    ("POST /v1/classify HTTP/1.1\r\nContent-Length: x", 400),
    ("POST /v1/classify HTTP/1.1\r\nTransfer-Encoding: chunked", 501),
    ("PUT /v1/classify HTTP/1.1\r\nContent-Length: 5", 501),
], ids=["over-cap", "bad-length", "chunked", "put"])
def test_expect_100_continue_is_not_sent_before_a_refusal(live, request_head, status):
    base, _ = live
    reply = _exchange(base, f"{request_head}\r\nHost: t\r\n"
                            f"Expect: 100-continue\r\n\r\n".encode())
    assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply
    assert b" 100 Continue" not in reply


@pytest.mark.parametrize("request_line, token, status", [
    ("POST /v1/classify", "wrong", 401),
    ("POST /v1/nonsense", "sesame", 404),
    ("POST /v1/export.csv", "sesame", 405),
], ids=["bad-token", "unknown-route", "wrong-method"])
def test_expect_100_continue_is_not_sent_before_a_refused_token_route_or_method(
        token_live, request_line, token, status):
    base, service = token_live
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
        sock.sendall(f"{request_line} HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer {token}\r\n"
                     f"Expect: 100-continue\r\nContent-Length: 10\r\n\r\n".encode())
        first = sock.recv(4096)  # the body is never sent
        assert first.startswith(f"HTTP/1.1 {status} ".encode()), first
        head = (first + _read_to_eof(sock)).partition(b"\r\n\r\n")[0].split(b"\r\n")
    assert b"Connection: close" in head
    assert (b"Allow: GET" in head) == (status == 405)
    assert len(service.store) == 0


def test_large_response_arrives_whole_on_a_keep_alive_connection(live, safe_host_text):
    base, service = live
    ids = [service.submit(safe_host_text).id for _ in range(12)]
    conn = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=10)
    try:
        conn.request("GET", "/v1/samples")
        resp = conn.getresponse()
        payload = resp.read()
        sock = conn.sock
        assert resp.status == 200 and len(payload) > 64 * 1024
        assert [doc["id"] for doc in json.loads(payload)] == ids
        conn.request("GET", "/v1/model")
        resp = conn.getresponse()
        assert resp.status == 200 and json.loads(resp.read()) == {"active": False}
        assert conn.sock is sock  # the same connection answered both
    finally:
        conn.close()


# -- request headers -------------------------------------------------------------

def _exchange(base, data):
    """Send ``data`` on one connection; everything the server sends before it closes."""
    with socket.create_connection(("127.0.0.1", _port(base)), timeout=3) as sock:
        sock.sendall(data)
        return _read_to_eof(sock)


_BODY_55 = b"x" * 55
# header lines and body of a POST /v1/submit whose end a server could misjudge
_DESYNC = {
    "chunked": (b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                501, "Transfer-Encoding is not supported"),
    "two-content-lengths": (b"Content-Length: 5\r\nContent-Length: 55\r\n\r\n" + _BODY_55,
                            400, "Content-Length must be a non-negative integer"),
    "line-without-colon": (b"X-Junk\r\nContent-Length: 5\r\n\r\nhello",
                           400, "Bad header line ('X-Junk')"),
    "space-before-colon": (b"Content-Length : 55\r\n\r\n" + _BODY_55,
                           400, "Bad header line ('Content-Length : 55')"),
    "obs-fold": (b"X-A: 1\r\n  2\r\nContent-Length: 5\r\n\r\nhello",
                 400, "Bad header line ('  2')"),
    "empty-name": (b": 1\r\nContent-Length: 5\r\n\r\nhello", 400, "Bad header line (': 1')"),
    "bare-cr": (b"X-A: 1\rContent-Length: 5\r\n\r\nhello",
                400, "Bad header line ('X-A: 1\\rContent-Length: 5')"),
}


@pytest.mark.parametrize("framing, status, error", _DESYNC.values(), ids=_DESYNC.keys())
def test_framing_that_could_desync_keep_alive_gets_one_reply_and_closes(live, framing, status,
                                                                         error):
    base, service = live
    pipelined = b"GET /v1/model HTTP/1.1\r\nHost: t\r\n\r\n"  # must not be served
    reply = _exchange(base, b"POST /v1/submit HTTP/1.1\r\nHost: t\r\n" + framing + pipelined)
    assert re.findall(rb"HTTP/1\.1 (\d{3}) ", reply) == [str(status).encode()]
    head, _, body = reply.partition(b"\r\n\r\n")
    assert b"\r\nConnection: close" in head
    assert json.loads(body) == {"error": error}
    assert len(service.store) == 0


@pytest.mark.parametrize("lines, status", [(99, 200), (100, 431)])
def test_a_header_block_holds_at_most_100_lines_with_the_blank_one(live, lines, status):
    base, _ = live
    fields = b"Connection: close\r\n" + b"X-Pad: 1\r\n" * (lines - 1)
    reply = _exchange(base, b"GET /v1/model HTTP/1.1\r\n" + fields + b"\r\n")
    assert reply.startswith(f"HTTP/1.1 {status} ".encode())
    assert status == 200 or reply.endswith(b'{"error": "Too many headers"}')


@pytest.mark.parametrize("size, status", [(65536, 200), (65537, 431)])
def test_a_header_line_over_64_kib_is_431(live, size, status):
    base, _ = live
    line = b"X-Pad: " + b"a" * (size - 9) + b"\r\n"
    assert len(line) == size
    reply = _exchange(base, b"GET /v1/model HTTP/1.1\r\nConnection: close\r\n" + line + b"\r\n")
    assert reply.startswith(f"HTTP/1.1 {status} ".encode())
    assert status == 200 or reply.endswith(b'{"error": "Line too long"}')


def _parsed(block: bytes) -> _Handler:
    """A handler that has parsed ``GET / HTTP/1.1`` and the header ``block``, with no socket."""
    handler = _Handler.__new__(_Handler)
    handler.rfile, handler.wfile = io.BytesIO(block), io.BytesIO()
    handler.raw_requestline, handler.client_address = b"GET / HTTP/1.1\r\n", ("127.0.0.1", 0)
    assert handler.parse_request()
    return handler


_TOKEN_CHARS = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyz"
_VALUE_CHARS = [c for c in map(chr, range(256)) if c.isprintable()] + ["\t"]


@st.composite
def _header_blocks(draw):
    """(field names as sent, the header block): token names in random case, some
    repeated, and printable latin-1 values with spaces and tabs anywhere."""
    names = draw(st.lists(st.text(_TOKEN_CHARS, min_size=1, max_size=12), min_size=1, max_size=4))
    sent, block = [], b""
    for _ in range(draw(st.integers(1, 10))):
        name = "".join(c.swapcase() if draw(st.booleans()) else c
                       for c in draw(st.sampled_from(names)))
        ows = draw(st.sampled_from(["", " ", "\t", " \t "]))
        value = draw(st.text(st.sampled_from(_VALUE_CHARS), max_size=16))
        sent.append(name)
        block += f"{name}:{ows}{value}\r\n".encode("latin-1")
    return sent, block + b"\r\n"


@settings(max_examples=300, deadline=None)
@given(_header_blocks())
def test_header_fields_read_as_the_stdlib_reads_them(case):
    sent, block = case
    headers = _parsed(block).headers
    stdlib = http.client.parse_headers(io.BytesIO(block))
    for name in {*sent, "X-Absent-Field"}:  # drawn names are at most 12 characters
        values = [value.rstrip(" \t") for value in stdlib.get_all(name, [])]
        assert headers.get(name) == (", ".join(values) if values else None)


def test_the_date_header_is_formatted_once_a_second(monkeypatch):
    handler, formatdate, calls = _Handler.__new__(_Handler), email.utils.formatdate, []
    monkeypatch.setattr(email.utils, "formatdate",
                        lambda *a, **kw: calls.append(a) or formatdate(*a, **kw))
    dates = []
    for now in (1_700_000_000.25, 1_700_000_000.75, 1_700_000_001.0):
        monkeypatch.setattr(time, "time", lambda: now)
        dates.append(handler.date_time_string())
        assert dates[-1] == formatdate(usegmt=True)
    assert dates[0] == dates[1] != dates[2]
    assert len(calls) == 2  # once for each second


def test_the_access_line_is_built_only_at_debug(live, caplog):
    base, _ = live
    with caplog.at_level(logging.DEBUG, logger="proctriage.service"):
        assert _request(base, "GET", "/v1/model")[0] == 200
    [record] = [r for r in caplog.records if r.name == "proctriage.service"]
    assert record.getMessage() == '127.0.0.1 "GET /v1/model HTTP/1.1" 200 -'
    assert record.msg == '%s "%s" %s %s'  # the arguments are left to the logger


# -- labeling --------------------------------------------------------------------

def test_label_flow_and_relabel(live, sandbox_host_text):
    base, _ = live
    _, sub = _request(base, "POST", "/v1/submit", sandbox_host_text)
    rid = sub["id"]

    status, rec = _request(base, "POST", f"/v1/samples/{rid}/label",
                           json.dumps({"label": 1}), content_type="application/json")
    assert status == 200
    assert rec["human_label"] == 1
    # a whole number written with a fraction part reads as that number
    status, rec = _request(base, "POST", f"/v1/samples/{rid}/label",
                           '{"label": 1.0}', content_type="application/json")
    assert (status, rec["human_label"]) == (200, 1)

    # last write wins
    status, rec = _request(base, "POST", f"/v1/samples/{rid}/label",
                           json.dumps({"label": 0}), content_type="application/json")
    assert rec["human_label"] == 0

    status, listed = _request(base, "GET", "/v1/samples?labeled=true")
    assert [r["id"] for r in listed] == [rid]
    assert listed[0]["human_label"] == 0


def test_label_unknown_id_is_404(live):
    base, _ = live
    status, _ = _request(base, "POST", "/v1/samples/deadbeef/label",
                         json.dumps({"label": 1}), content_type="application/json")
    assert status == 404


def test_label_invalid_value_is_400(live, sandbox_host_text):
    base, _ = live
    _, sub = _request(base, "POST", "/v1/submit", sandbox_host_text)
    rid = sub["id"]
    for bad in ("2", "true", '"1"', "null", "1" * 5000):
        status, _ = _request(base, "POST", f"/v1/samples/{rid}/label",
                             f'{{"label": {bad}}}', content_type="application/json")
        assert status == 400, bad
    status, _ = _request(base, "POST", f"/v1/samples/{rid}/label",
                         "not json", content_type="application/json")
    assert status == 400


@pytest.mark.parametrize("path", ["/v1/model", "/v1/samples/{rid}/label"])
def test_a_json_body_that_is_not_an_object_is_400(live, sandbox_host_text, path):
    base, service = live
    _, sub = _request(base, "POST", "/v1/submit", sandbox_host_text)
    for body in ("[1]", "1", '"label"', "null"):
        status, doc = _request(base, "POST", path.format(rid=sub["id"]), body,
                               content_type="application/json")
        assert (status, doc) == (400, {"error": "JSON object expected"}), body
    assert service.model_info() == {"active": False}
    assert service.store.get(sub["id"]).human_label is None


def test_an_unhandled_exception_is_a_logged_500(live, monkeypatch, caplog):
    base, service = live

    def broken(raw_text):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(service, "classify", broken)
    with caplog.at_level(logging.ERROR, logger="proctriage.service"):
        status, doc = _request(base, "POST", "/v1/classify", "PID NAME\n")
    assert (status, doc) == (500, {"error": "internal error"})
    [record] = [r for r in caplog.records if r.name == "proctriage.service"]
    assert record.getMessage() == "unhandled error serving POST /v1/classify"
    assert record.exc_info[0] is RuntimeError
    assert _request(base, "GET", "/v1/model") == (200, {"active": False})


# -- listing and export -------------------------------------------------------------

def test_samples_listing_and_filter(live, sandbox_host_text, safe_host_text):
    base, _ = live
    _, a = _request(base, "POST", "/v1/submit", sandbox_host_text)
    _, b = _request(base, "POST", "/v1/submit", safe_host_text)
    _request(base, "POST", f"/v1/samples/{a['id']}/label",
             json.dumps({"label": 1}), content_type="application/json")

    _, every = _request(base, "GET", "/v1/samples")
    assert [r["id"] for r in every] == [a["id"], b["id"]]

    _, labeled = _request(base, "GET", "/v1/samples?labeled=true")
    assert [r["id"] for r in labeled] == [a["id"]]

    _, unlabeled = _request(base, "GET", "/v1/samples?labeled=false")
    assert [r["id"] for r in unlabeled] == [b["id"]]

    for flag in ("maybe", ""):
        status, doc = _request(base, "GET", f"/v1/samples?labeled={flag}")
        assert (status, doc) == (400, {"error": "labeled must be true or false"}), flag


def test_export_empty_store_is_header_only(live):
    base, _ = live
    status, text = _request(base, "GET", "/v1/export.csv")
    assert status == 200
    assert text == "process_count,user_count,ratio,label,origin\n"


def test_export_roundtrips_as_dataset(live, sandbox_host_text, safe_host_text):
    base, _ = live
    _, a = _request(base, "POST", "/v1/submit", sandbox_host_text)
    _, b = _request(base, "POST", "/v1/submit", safe_host_text)
    _, g = _request(base, "POST", "/v1/submit", GARBAGE)
    for rid, lab in ((a["id"], 1), (b["id"], 0), (g["id"], 1)):
        _request(base, "POST", f"/v1/samples/{rid}/label",
                 json.dumps({"label": lab}), content_type="application/json")

    _, text = _request(base, "GET", "/v1/export.csv")
    data = dataset_from_csv(text)
    # the garbage record has no features so only two rows export
    assert len(data) == 2
    by_origin = {s.origin: s for s in data}
    assert by_origin[a["id"]].features == FeatureVector.from_counts(40, 4)
    assert by_origin[a["id"]].label == Label.SANDBOX
    assert by_origin[b["id"]].features == FeatureVector.from_counts(220, 1)


# -- routing ---------------------------------------------------------------------

def test_unknown_route_is_404(live):
    base, _ = live
    status, _ = _request(base, "GET", "/v1/nonsense")
    assert status == 404
    status, _ = _request(base, "GET", "/")
    assert status == 404


def test_wrong_method_is_405(live, sandbox_host_text):
    base, _ = live
    status, _ = _request(base, "GET", "/v1/submit")
    assert status == 405
    status, _ = _request(base, "GET", "/v1/classify")
    assert status == 405
    status, _ = _request(base, "POST", "/v1/export.csv", sandbox_host_text)
    assert status == 405


def test_every_route_answers_its_methods_and_405s_the_rest_with_allow(live):
    base, _ = live
    for key, methods in _ROUTES.items():
        path = key if isinstance(key, str) else "/v1/samples/0123abcd/label"
        assert isinstance(key, str) or key.match(path)
        for method in ("GET", "POST"):
            data = b"" if method == "POST" else None
            req = urllib.request.Request(base + path, data=data, method=method)
            try:
                with urllib.request.urlopen(req, timeout=10) as resp:
                    status, allow = resp.status, resp.headers["Allow"]
            except urllib.error.HTTPError as err:
                status, allow = err.code, err.headers["Allow"]
            if method in methods:
                assert status not in (404, 405), (method, path)
            else:
                assert (status, allow) == (405, ", ".join(methods)), (method, path)


# -- model management ---------------------------------------------------------------

def test_bad_model_doc_is_400_and_previous_model_survives(live, sandbox_host_text):
    base, _ = live
    _request(base, "POST", "/v1/model", json.dumps(_toy_tree_doc()),
             content_type="application/json")
    _, before = _request(base, "GET", "/v1/model")

    status, _ = _request(base, "POST", "/v1/model", json.dumps({"version": "junk"}),
                         content_type="application/json")
    assert status == 400
    status, _ = _request(base, "POST", "/v1/model", "not json",
                         content_type="application/json")
    assert status == 400

    _, after = _request(base, "GET", "/v1/model")
    assert after == before
    _, doc = _request(base, "POST", "/v1/submit", sandbox_host_text)
    assert doc["verdict"] == "sandbox"


def _edited(make_doc, edit):
    """JSON text of ``make_doc()`` after ``edit`` changed it in place.

    An infinite value is written as 1e999: standard JSON that parses to inf.
    """
    doc = make_doc()
    edit(doc)
    return json.dumps(doc).replace("Infinity", "1e999")


def _leftmost_leaf(node):
    while "left" in node:
        node = node["left"]
    return node


def _chain_tree(depth):
    """A tree document ``depth`` splits deep, as text (too deep for json.dumps)."""
    leaf = '{"n_samples": 1, "class_counts": [1, 0], "impurity": 0.0, "label": 0}'
    split = ('{"n_samples": 1, "class_counts": [1, 0], "impurity": 0.0, "feature_index": 0, '
             f'"threshold": 1.0, "right": {leaf}, "left": ')
    return '{"version": "dtree-v1", "root": ' + split * depth + leaf + "}" * depth + "}"


def _ann_entry(where, value):
    """A BAD_MODELS body: the toy network with the first entry of ``where`` set to ``value``."""
    entries = {"weight": lambda d: d["weights"][0]["data"], "bias": lambda d: d["biases"][0],
               "scaler": lambda d: d["scaler"]["mins"]}[where]
    return lambda: _edited(_toy_ann_doc, lambda d: entries(d).__setitem__(0, value))


BAD_MODELS = {
    "tree-feature-index-7":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(feature_index=7)),
    "tree-feature-index-negative":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(feature_index=-1)),
    "tree-nan-threshold":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(threshold=float("nan"))),
    "tree-empty-leaf": lambda: _edited(
        _toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(class_counts=[0, 0])),
    "tree-one-class-count": lambda: _edited(
        _toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(class_counts=[1])),
    "tree-three-class-counts": lambda: _edited(
        _toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(class_counts=[1, 0, 0])),
    "tree-class-count-1e999": lambda: _edited(
        _toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(class_counts=[INF, 0])),
    # a fraction or a bool where the document names a whole number
    "tree-feature-index-2.7":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(feature_index=2.7)),
    "tree-label-true":
        lambda: _edited(_toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(label=True)),
    "tree-feature-index-1e999":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(feature_index=INF)),
    "tree-label-1e999":
        lambda: _edited(_toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(label=INF)),
    "tree-impurity-1e999":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(impurity=INF)),
    "tree-max-depth-2.5":
        lambda: _edited(_toy_tree_doc, lambda d: d["config"].update(max_depth=2.5)),
    "tree-max-depth-1e999":
        lambda: _edited(_toy_tree_doc, lambda d: d["config"].update(max_depth=INF)),
    "tree-900-deep": lambda: _chain_tree(900),
    "tree-1500-deep": lambda: _chain_tree(1500),
    "tree-config-null": lambda: _edited(_toy_tree_doc, lambda d: d.update(config=None)),
    "tree-config-list": lambda: _edited(_toy_tree_doc, lambda d: d.update(config=[])),
    "tree-config-string": lambda: _edited(_toy_tree_doc, lambda d: d.update(config="x")),
    "tree-feature-names-short":
        lambda: _edited(_toy_tree_doc, lambda d: d.update(feature_names=["x"])),
    "tree-feature-names-string":
        lambda: _edited(_toy_tree_doc, lambda d: d.update(feature_names="abc")),
    "tree-feature-names-reordered": lambda: _edited(_toy_tree_doc, lambda d: d.update(
        feature_names=["user_count", "process_count", "ratio"])),
    # only gini trees are grown; a document may leave the criterion out, not name another
    "tree-criterion-entropy":
        lambda: _edited(_toy_tree_doc, lambda d: d.update(criterion="entropy")),
    "tree-criterion-true": lambda: _edited(_toy_tree_doc, lambda d: d.update(criterion=True)),
    "tree-criterion-null": lambda: _edited(_toy_tree_doc, lambda d: d.update(criterion=None)),
    "ann-scaler-length-2": lambda: _edited(
        _toy_ann_doc, lambda d: d["scaler"].update(mins=[9.0, 1.0], maxs=[305.0, 17.0])),
    "ann-nan-threshold":
        lambda: _edited(_toy_ann_doc, lambda d: d.update(threshold=float("nan"))),
    "ann-two-inputs": lambda: _edited(_toy_ann_doc, lambda d: d.update(
        layer_sizes=[2, 3, 3, 1],
        weights=[{"shape": [2, 3], "data": [0.1] * 6}, *d["weights"][1:]])),
    "ann-seed-1e999": lambda: _edited(_toy_ann_doc, lambda d: d.update(seed=INF)),
    "ann-layer-size-1e999":
        lambda: _edited(_toy_ann_doc, lambda d: d["layer_sizes"].__setitem__(1, INF)),
    # a field of another JSON type: a numeric string, a bool, a fraction
    "tree-threshold-string": lambda: _edited(
        _toy_tree_doc, lambda d: d["root"].update(threshold=str(d["root"]["threshold"]))),
    "tree-class-counts-string-and-fraction": lambda: _edited(
        _toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(class_counts=["3", 2.9])),
    "tree-class-counts-string": lambda: _edited(
        _toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(class_counts="12")),
    "tree-n-samples-string": lambda: _edited(_toy_tree_doc, lambda d: d.update(n_samples="12")),
    "tree-n-samples-12.5": lambda: _edited(_toy_tree_doc, lambda d: d.update(n_samples=12.5)),
    # the top-level totals may be left out; given, they are the root's
    "tree-n-samples-contradicts-root":
        lambda: _edited(_toy_tree_doc, lambda d: d.update(n_samples=7)),
    "tree-class-counts-contradict-root":
        lambda: _edited(_toy_tree_doc, lambda d: d.update(class_counts=[3, 4])),
    "tree-leaf-n-samples-not-its-class-counts":
        lambda: _edited(_toy_tree_doc, lambda d: _leftmost_leaf(d["root"]).update(n_samples=7)),
    "tree-node-n-samples-true":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(n_samples=True)),
    "tree-impurity-string":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(impurity="0.3")),
    "tree-impurity-true":
        lambda: _edited(_toy_tree_doc, lambda d: d["root"].update(impurity=True)),
    "tree-min-samples-split-string":
        lambda: _edited(_toy_tree_doc, lambda d: d["config"].update(min_samples_split="3")),
    "tree-min-samples-split-2.7":
        lambda: _edited(_toy_tree_doc, lambda d: d["config"].update(min_samples_split=2.7)),
    "ann-layer-sizes-string":
        lambda: _edited(_toy_ann_doc, lambda d: d.update(layer_sizes="3331")),
    "ann-layer-size-3.7":
        lambda: _edited(_toy_ann_doc, lambda d: d.update(layer_sizes=[3, 3.7, 3, 1])),
    "ann-seed-string": lambda: _edited(_toy_ann_doc, lambda d: d.update(seed="7")),
    "ann-threshold-string": lambda: _edited(_toy_ann_doc, lambda d: d.update(threshold="0.5")),
    "ann-threshold-true": lambda: _edited(_toy_ann_doc, lambda d: d.update(threshold=True)),
    "ann-threshold-1.5": lambda: _edited(_toy_ann_doc, lambda d: d.update(threshold=1.5)),
    "ann-seed-negative": lambda: _edited(_toy_ann_doc, lambda d: d.update(seed=-1)),
    "ann-hidden-layer-of-0": lambda: _edited(_toy_ann_doc, lambda d: d.update(
        layer_sizes=[3, 0, 1], weights=[{"shape": [3, 0], "data": []},
                                        {"shape": [0, 1], "data": []}], biases=[[], [0.0]])),
    "ann-extra-weight": lambda: _edited(_toy_ann_doc, lambda d: d["weights"].append("junk")),
    "integer-of-5000-digits": lambda: _edited(
        _toy_tree_doc, lambda d: d.update(n_samples=INF)).replace("1e999", "1" * 5000),
    **{f"ann-{where}-entry-{name}": _ann_entry(where, value)
       for where in ("weight", "bias", "scaler")
       for name, value in (("string", "0.1"), ("true", True), ("false", False))},
}


@pytest.mark.parametrize("make_body", BAD_MODELS.values(), ids=BAD_MODELS.keys())
def test_invalid_model_doc_is_400_and_previous_model_survives(live, sandbox_host_text,
                                                              make_body):
    base, _ = live
    _request(base, "POST", "/v1/model", json.dumps(_toy_tree_doc()),
             content_type="application/json")
    _, before = _request(base, "GET", "/v1/model")

    status, doc = _request(base, "POST", "/v1/model", make_body(),
                           content_type="application/json")
    assert status == 400, doc

    _, after = _request(base, "GET", "/v1/model")
    assert after == before
    status, doc = _request(base, "POST", "/v1/classify", sandbox_host_text)
    assert status == 200 and doc["verdict"] == "sandbox"


def test_ann_model_info(live):
    base, _ = live
    status, info = _request(base, "POST", "/v1/model", json.dumps(_toy_ann_doc()),
                            content_type="application/json")
    assert status == 200
    assert info["kind"] == "ann"
    assert info["layer_sizes"] == [3, 3, 3, 1]
    assert info["model_id"]


def test_a_tree_without_top_level_totals_reports_its_roots(live):
    base, _ = live
    doc = _toy_tree_doc()
    del doc["n_samples"], doc["class_counts"]
    status, info = _request(base, "POST", "/v1/model", json.dumps(doc),
                            content_type="application/json")
    assert status == 200 and info["n_samples"] == doc["root"]["n_samples"] == 6
    assert _request(base, "GET", "/v1/model") == (200, info)


# integers near the configs' bounds, and values of other types that they refuse; at most
# two hidden layers of a few units and a few epochs keep the test well under a second
_CONFIG_INTS = st.integers(-1, 4) | st.sampled_from([True, False, 1.5, 3.0, None])


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.just(TreeConfig), st.fixed_dictionaries({
    "max_depth": _CONFIG_INTS | st.integers(min_value=1),
    "min_samples_split": _CONFIG_INTS | st.integers(min_value=2),
})) | st.tuples(st.just(AnnConfig), st.fixed_dictionaries({
    "layer_sizes": st.lists(_CONFIG_INTS, max_size=2).map(lambda hidden: (3, *hidden, 1)),
    "learning_rate": st.floats(),
    "epochs": _CONFIG_INTS,
    "seed": _CONFIG_INTS | st.integers(min_value=0),
})))
def test_every_config_its_constructor_accepts_trains_a_model_that_loads(make):
    kind, fields = make
    try:
        config = kind(**fields)
    except ValueError:
        return
    if kind is TreeConfig:
        model = load_model(tree_to_dict(train_tree(_toy_data(), config))).model
        assert model.config == config
    else:
        model = load_model(ann_to_dict(train_ann(_toy_data(), config)[0])).model
        assert (model.layer_sizes, model.seed) == (config.layer_sizes, config.seed)


_EXTREME = st.sampled_from([1e308, -1e308]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _extreme_ann_docs(draw):
    """The toy network with each weight and bias ±1e308 or any finite float, and no
    scaler or one of any finite bounds."""
    doc = _toy_ann_doc()
    for w in doc["weights"]:
        w["data"] = draw(st.lists(_EXTREME, min_size=len(w["data"]), max_size=len(w["data"])))
    doc["biases"] = [draw(st.lists(_EXTREME, min_size=len(b), max_size=len(b)))
                     for b in doc["biases"]]
    bounds = st.lists(_EXTREME, min_size=3, max_size=3)
    doc["scaler"] = draw(st.none() | st.fixed_dictionaries({"mins": bounds, "maxs": bounds}))
    return doc


def test_an_extreme_network_scores_from_0_to_1_and_its_records_survive_a_restart(
        tmp_path, sandbox_host_text):
    dirs = iter(range(10**6))
    # with no scaler, the first unit reads 40 * 1e308 + 4 * -1e308 + ...: inf + -inf
    opposed = _toy_ann_doc()
    opposed["scaler"] = None
    first = opposed["weights"][0]["data"]  # row-major (3, 3): the first unit's are 0, 3 and 6
    first[0], first[3] = 1e308, -1e308

    @settings(max_examples=60, deadline=None)
    @example(doc=opposed, counts=(40, 4))
    @given(doc=_extreme_ann_docs(),  # counts up to one row per byte of the largest body
           counts=st.integers(1, MAX_BODY_BYTES).flatmap(
               lambda pc: st.tuples(st.just(pc), st.integers(1, pc))))
    def check(doc, counts):
        data_dir = tmp_path / str(next(dirs))
        service = Service(ServiceConfig(data_dir=data_dir))
        service.activate_model(doc)
        features = FeatureVector.from_counts(*counts)
        predicted = load_model(doc).predict(features)
        assert 0.0 <= predicted[1] <= 1.0
        # stored as a submission scored by this model is, and one submitted
        scored = SampleRecord(id=uuid.uuid4().hex, received_at=time.time(), raw_text="-",
                              features=features, predicted=predicted)
        service.store.append(scored)
        submitted = service.submit(sandbox_host_text)
        assert 0.0 <= submitted.predicted[1] <= 1.0
        again = Service(ServiceConfig(data_dir=data_dir))
        assert [again.store.get(r.id) for r in (scored, submitted)] == [scored, submitted]

    check()


# each mutation deletes one field of a document, sets it to one of these, or flips its type
_POOL = [None, True, -1, 1e999, 0.5, "x", [], [1], {}]
_DELETE = object()
_FLIP = object()
# fields whose absent value is null, so that a null there is no type flip
_NULLABLE = {"max_depth", "human_label"}
_PROBES = [FeatureVector.from_counts(pc, uc) for pc, uc in [(1, 1), (40, 4), (220, 1), (5000, 17)]]


def _flips(key, value):
    """``value`` written as another JSON type: a bool, null, and for a number a
    numeric string; for an integer also a fraction, and 3.0 for 3."""
    flips = [bool(value)] + ([] if key in _NULLABLE else [None])
    if type(value) in (int, float):
        flips.append(str(value))
    if type(value) is int:
        flips += [value + 0.5, float(value)]
    return flips


@st.composite
def _mutated(draw, doc):
    """A copy of ``doc`` with one field, at any depth, deleted, replaced or
    type-flipped (see ``_flips``), and whether it was a type flip."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        # stop at a leaf, an empty container, or when the draw says so
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            break
        node = child
    flip = [] if isinstance(node[key], (dict, list)) else [_FLIP]  # only a leaf flips
    value = draw(st.sampled_from([_DELETE, *_POOL, *flip]))
    if value is _DELETE:
        del node[key]
    elif value is _FLIP:
        node[key] = draw(st.sampled_from(_flips(key, node[key])))
    else:
        node[key] = copy.deepcopy(value)
    return doc, value is _FLIP


@pytest.fixture(scope="module")
def trained_docs():
    data = generate_dataset(GenConfig(n_safe=40, n_unsafe=20, seed=3))
    return {"dtree": tree_to_dict(train_tree(data, TreeConfig(max_depth=3))),
            "ann": ann_to_dict(train_ann(data, AnnConfig(epochs=20))[0])}


@pytest.mark.parametrize("kind", ["dtree", "ann"])
def test_a_mutated_model_document_is_refused_or_serves(tmp_path, trained_docs, kind):
    service = Service(ServiceConfig(data_dir=tmp_path, port=0))

    @settings(max_examples=300, deadline=None)
    @given(_mutated(trained_docs[kind]))
    def check(mutant):
        doc, flipped = mutant
        try:
            model = load_model(doc)
        except ModelFormatError:
            return
        # a type flip is refused unless it reads as the same value
        to_dict = tree_to_dict if kind == "dtree" else ann_to_dict
        assert not flipped or to_dict(model.model) == trained_docs[kind]
        for v in _PROBES:
            label, prob = model.predict(v)
            assert label in (Label.TARGET, Label.SANDBOX) and 0.0 <= prob <= 1.0
        if kind == "dtree":
            export_tree(model.model, "ascii")
            export_tree(model.model, "dot")
        json.dumps(service.activate_model(doc), allow_nan=False)

    check()


def test_model_persists_across_restart(tmp_path, sandbox_host_text):
    svc1 = Service(ServiceConfig(data_dir=tmp_path, port=0))
    svc1.activate_model(_toy_tree_doc())
    first = svc1.classify(sandbox_host_text)
    assert first["verdict"] == "sandbox"

    svc2 = Service(ServiceConfig(data_dir=tmp_path, port=0))
    info = svc2.model_info()
    assert info["active"] is True and info["kind"] == "dtree"
    assert svc2.classify(sandbox_host_text) == first


def test_concurrent_activations_leave_the_served_model_on_disk(tmp_path):
    data = generate_dataset(GenConfig(n_safe=200, n_unsafe=40, seed=3))
    docs = [tree_to_dict(train_tree(data, TreeConfig(max_depth=depth))) for depth in (None, 1)]
    for trial in range(20):
        config = ServiceConfig(data_dir=tmp_path / str(trial), port=0)
        service, barrier, infos = Service(config), threading.Barrier(2), []

        def activate(doc):
            barrier.wait()
            infos.append(service.activate_model(doc))  # an exception here fails the test

        threads = [threading.Thread(target=activate, args=(doc,)) for doc in docs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(infos) == 2
        served = service.model_info()["model_id"]
        assert read_model_file(config.data_dir / MODEL_FILENAME).model_id == served
        assert Service(config).model_info()["model_id"] == served


def test_every_crash_state_of_an_activation_starts_the_old_or_the_new_model(tmp_path):
    # an activation writes and fsyncs model.json.tmp, then renames it over model.json:
    # a crash before the rename leaves the old file beside any prefix of the new one
    docs = [tree_to_dict(train_tree(generate_dataset(GenConfig(n_safe=30, n_unsafe=10, seed=s)),
                                    TreeConfig(max_depth=1))) for s in (1, 2)]
    ids, files = [], []
    for i, doc in enumerate(docs):
        service = Service(ServiceConfig(data_dir=tmp_path / str(i)))
        ids.append(service.activate_model(doc)["model_id"])
        files.append((service.data_dir / MODEL_FILENAME).read_bytes())
    assert ids[0] != ids[1]
    config = ServiceConfig(data_dir=tmp_path / "crash")
    config.data_dir.mkdir()
    (config.data_dir / MODEL_FILENAME).write_bytes(files[0])
    tmp = config.data_dir / (MODEL_FILENAME + ".tmp")
    for k in range(len(files[1]) + 1):
        tmp.write_bytes(files[1][:k])
        assert Service(config).model_info()["model_id"] == ids[0], k
    os.replace(tmp, config.data_dir / MODEL_FILENAME)
    assert Service(config).model_info()["model_id"] == ids[1]


# -- durability ----------------------------------------------------------------------

def test_records_survive_restart(tmp_path, sandbox_host_text):
    svc1 = Service(ServiceConfig(data_dir=tmp_path, port=0))
    ids = [svc1.submit(sandbox_host_text).id for _ in range(5)]
    svc1.label(ids[0], Label.SANDBOX)

    svc2 = Service(ServiceConfig(data_dir=tmp_path, port=0))
    assert [r.id for r in svc2.samples()] == ids
    assert svc2.store.get(ids[0]).human_label == Label.SANDBOX
    assert svc2.store.get(ids[1]).raw_text == sandbox_host_text


def test_torn_tail_line_is_tolerated(tmp_path, sandbox_host_text):
    svc1 = Service(ServiceConfig(data_dir=tmp_path, port=0))
    ids = [svc1.submit(sandbox_host_text).id for _ in range(3)]

    log = next((tmp_path / "samples").glob("samples-*.jsonl"))
    with open(log, "a", encoding="utf-8") as fh:
        fh.write('{"id": "truncated-snapsh')  # simulated crash mid-write

    svc2 = Service(ServiceConfig(data_dir=tmp_path, port=0))
    assert [r.id for r in svc2.samples()] == ids


def test_non_object_store_lines_are_skipped(tmp_path, caplog):
    store = SampleStore(tmp_path)
    store.append(SampleRecord(id="900d", received_at=1_700_000_000.0, raw_text="x"))
    log = next(tmp_path.glob("samples-*.jsonl"))
    with open(log, "a", encoding="utf-8") as fh:
        fh.write("null\n[1]\n42\n" + "[" * 100_000 + "]" * 100_000 + "\n")  # last: too deep

    with caplog.at_level(logging.WARNING, logger="proctriage.service"):
        reopened = SampleStore(tmp_path)
    assert [r.id for r in reopened.all_records()] == ["900d"]
    assert sum("unreadable row skipped" in m for m in caplog.messages) == 4


def test_a_store_line_that_is_not_utf8_is_skipped(tmp_path, caplog):
    store = SampleStore(tmp_path)
    store.append(SampleRecord(id="a1", received_at=1_700_000_000.0, raw_text="before"))
    log = next(tmp_path.glob("samples-*.jsonl"))
    with open(log, "ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
    store.append(SampleRecord(id="b2", received_at=1_700_000_000.0, raw_text="after"))

    with caplog.at_level(logging.WARNING, logger="proctriage.service"):
        reopened = SampleStore(tmp_path)
    assert [r.id for r in reopened.all_records()] == ["a1", "b2"]
    assert [reopened.get(i).raw_text for i in ("a1", "b2")] == ["before", "after"]
    assert [m for m in caplog.messages if "unreadable row skipped" in m] == [
        f"{log.name}:2 unreadable row skipped"]


def test_a_whitespace_only_store_line_is_skipped_without_a_warning(tmp_path, caplog):
    store = SampleStore(tmp_path)
    store.append(SampleRecord(id="a1", received_at=1_700_000_000.0, raw_text="before"))
    log = next(tmp_path.glob("samples-*.jsonl"))
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(" \t\n\n")
    store.append(SampleRecord(id="b2", received_at=1_700_000_000.0, raw_text="after"))

    with caplog.at_level(logging.WARNING, logger="proctriage.service"):
        reopened = SampleStore(tmp_path)
    assert [r.id for r in reopened.all_records()] == ["a1", "b2"]
    assert [reopened.get(i).raw_text for i in ("a1", "b2")] == ["before", "after"]
    assert caplog.messages == []


_STORED = SampleRecord(id="a1", received_at=1_700_000_000.0, raw_text="PID\tNAME\n",
                       features=FeatureVector.from_counts(40, 4), predicted=(Label.SANDBOX, 0.9),
                       human_label=Label.SANDBOX, parse_warnings=2)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(parse_warnings=INF),
    lambda d: d.update(human_label=INF),
    lambda d: d["predicted"].update(label=INF),
    lambda d: d["features"].update(process_count=INF),
    # a time the day-file name cannot hold, and a probability outside 0-1
    lambda d: d.update(received_at=INF),
    lambda d: d.update(received_at=float("nan")),
    lambda d: d.update(received_at=1e300),
    lambda d: d.update(received_at=1e17),
    lambda d: d.update(received_at=-1e17),
    lambda d: d["predicted"].update(probability=float("nan")),
    lambda d: d["predicted"].update(probability=-INF),
    lambda d: d["predicted"].update(probability=7),
    # an id the label route cannot address
    lambda d: d.update(id=None),
    lambda d: d.update(id="../etc"),
    lambda d: d.update(id=["a"]),
    lambda d: d.update(id="a1\n"),
    # an integer field holding a bool, a fraction or a string
    lambda d: d.update(human_label=0.9),
    lambda d: d.update(human_label=True),
    lambda d: d.update(parse_warnings=True),
    lambda d: d.update(parse_warnings="2"),
    lambda d: d["features"].update(process_count=40.5),
    lambda d: d["predicted"].update(label=True),
    # a listing that is not a JSON string, which GET /v1/samples would serve as text
    lambda d: d.update(raw_text=None),
    lambda d: d.update(raw_text=5),
    lambda d: d.update(raw_text=["a"]),
    lambda d: d.update(raw_text={}),
    # a real field holding a bool or a numeric string
    lambda d: d.update(received_at=True),
    lambda d: d.update(received_at="1700000000"),
    lambda d: d["predicted"].update(probability=True),
    lambda d: d["features"].update(ratio=str(d["features"]["ratio"])),
    # an object field holding another JSON type
    lambda d: d.update(features="x"),
    lambda d: d.update(predicted=[0, 0.2]),
    # a whole count too big for the float its ratio needs
    lambda d: d["features"].update(process_count=10**400),
    # whole counts beyond float range, consistent with their ratio of 10.0
    lambda d: d["features"].update(process_count=10**401, user_count=10**400),
], ids=["parse_warnings", "human_label", "predicted.label", "features.process_count",
        "received_at-inf", "received_at-nan", "received_at-1e300", "received_at-1e17",
        "received_at-minus-1e17", "probability-nan", "probability-minus-inf", "probability-7",
        "id-null", "id-dotdot", "id-list", "id-newline", "human_label-0.9", "human_label-true",
        "parse_warnings-true", "parse_warnings-string", "features.process_count-40.5",
        "predicted.label-true", "raw_text-null", "raw_text-5", "raw_text-list",
        "raw_text-object", "received_at-true", "received_at-string", "probability-true",
        "features.ratio-string", "features-string", "predicted-list",
        "features.process_count-10^400", "features.counts-10^401-over-10^400"])
def test_store_lines_with_numbers_too_big_for_int_are_skipped(tmp_path, caplog, edit):
    store = SampleStore(tmp_path)
    store.append(SampleRecord(id="900d", received_at=1_700_000_000.0, raw_text="x"))
    doc = record_to_dict(_STORED)
    edit(doc)
    log = next(tmp_path.glob("samples-*.jsonl"))
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc).replace("Infinity", "1e999") + "\n")

    with caplog.at_level(logging.WARNING, logger="proctriage.service"):
        reopened = SampleStore(tmp_path)
    assert [r.id for r in reopened.all_records()] == ["900d"]
    assert sum("unreadable row skipped" in m for m in caplog.messages) == 1


def test_a_mutated_store_line_is_kept_or_skipped(tmp_path):
    store_dir = tmp_path / "samples"
    store_dir.mkdir()

    @settings(max_examples=300, deadline=None)
    @given(_mutated(record_to_dict(_STORED)))
    def check(mutant):
        doc, flipped = mutant
        for path in store_dir.glob("samples-*.jsonl"):
            path.unlink()  # the previous example's line and its label snapshot
        (store_dir / "samples-20231114.jsonl").write_text(json.dumps(doc) + "\n",
                                                          encoding="utf-8")
        service = Service(ServiceConfig(data_dir=tmp_path, port=0))
        kept = service.samples()
        assert len(kept) in (0, 1)  # and the reload did not raise
        # a type flip is skipped unless it reads as the same value
        assert not flipped or kept in ([], [_STORED])
        for record in kept:
            assert _LABEL_PATH.match(f"/v1/samples/{record.id}/label")
            service.label(record.id, Label.TARGET)
        # what GET /v1/samples replies with is strict JSON
        json.dumps([record_to_dict(r) for r in service.samples()], allow_nan=False)

    check()


def test_record_after_a_torn_tail_survives_restart(tmp_path, sandbox_host_text):
    config = ServiceConfig(data_dir=tmp_path, port=0)
    first = Service(config).submit(sandbox_host_text).id
    log = next((tmp_path / "samples").glob("samples-*.jsonl"))
    with open(log, "a", encoding="utf-8") as fh:
        fh.write('{"id": "truncated-snapsh')  # crash mid-write, then a restart

    second = Service(config).submit(sandbox_host_text).id  # acknowledged
    assert [r.id for r in Service(config).samples()] == [first, second]


def test_listing_after_a_torn_tail_reads_back(tmp_path, sandbox_host_text, safe_host_text):
    config = ServiceConfig(data_dir=tmp_path, port=0)
    first = Service(config).submit(sandbox_host_text).id
    log = next((tmp_path / "samples").glob("samples-*.jsonl"))
    with open(log, "a", encoding="utf-8") as fh:
        fh.write('{"id": "truncated-snapsh')  # crash mid-write, then a restart

    service = Service(config)
    second = service.submit(safe_host_text).id  # after the newline that ends the fragment
    assert service.store.get(second).raw_text == safe_host_text
    reopened = Service(config).store
    assert reopened.get(first).raw_text == sandbox_host_text
    assert reopened.get(second).raw_text == safe_host_text


def test_label_after_a_restart_keeps_the_listing(tmp_path, sandbox_host_text):
    config = ServiceConfig(data_dir=tmp_path, port=0)
    rid = Service(config).submit(sandbox_host_text).id

    labeled = Service(config).label(rid, Label.SANDBOX)
    assert labeled.raw_text == sandbox_host_text
    log = next((tmp_path / "samples").glob("samples-*.jsonl"))
    last = json.loads(log.read_text(encoding="utf-8").splitlines()[-1])
    assert (last["raw_text"], last["human_label"]) == (sandbox_host_text, 1)
    record = Service(config).store.get(rid)
    assert (record.raw_text, record.human_label) == (sandbox_host_text, Label.SANDBOX)


def test_concurrent_appends_each_read_back_their_own_listing(tmp_path):
    store = SampleStore(tmp_path)
    failures = []

    def worker(w):
        for n in range(50):
            rid, text = f"{w}{n:04x}", f"PID\tNAME\n{w}\t{'x' * (n * 37 % 500)}\n"
            store.append(SampleRecord(id=rid, received_at=1_700_000_000.0, raw_text=text))
            if store.get(rid).raw_text != text:
                failures.append(rid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    listings = {r.id: r.raw_text for r in store.records(lambda r: True)}
    assert len(listings) == 200
    assert {r.id: r.raw_text for r in SampleStore(tmp_path).records(lambda r: True)} == listings


def test_reload_keeps_listings_out_of_memory(tmp_path):
    count = 200

    def retained(listing: str) -> int:
        root = tmp_path / str(len(listing))
        store = SampleStore(root)
        for n in range(count):
            store.append(SampleRecord(id=f"{n:x}", received_at=1_700_000_000.0 + n,
                                      raw_text=listing))
        tracemalloc.start()
        try:
            reopened = SampleStore(root)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert reopened.get("0").raw_text == listing
        return size

    row = "1234\t4\tx64\t0\tsvchost.exe\tNT AUTHORITY\\SYSTEM\n"
    short = "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n" + row * 200
    small, large = retained(short), retained(short + row * 600)  # listings 4x longer
    assert large < 1.25 * small
    assert large < count * len(short) / 10  # a small part of one listing per record


def test_fsyncs_cover_new_files_and_renames_but_not_each_request(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    Service(ServiceConfig(data_dir=tmp_path, port=0)).activate_model(_toy_tree_doc())
    assert synced == ["file", "dir"]  # model.json.tmp, then the rename

    synced.clear()
    store = SampleStore(tmp_path / "samples")
    for n in range(3):
        store.append(SampleRecord(id=f"r{n}", received_at=1_700_000_000.0, raw_text="x"))
    assert synced == ["file", "dir", "file", "file"]  # the day file is created once


def test_store_snapshot_semantics(tmp_path):
    store = SampleStore(tmp_path)
    rec = SampleRecord(id="abc", received_at=1_700_000_000.0, raw_text="x")
    store.append(rec)
    updated = SampleRecord(id="abc", received_at=1_700_000_000.0, raw_text="x",
                           human_label=Label.SANDBOX)
    store.append(updated)
    assert len(store) == 1
    assert store.get("abc").human_label == Label.SANDBOX
    # two physical lines on disk, one logical record
    log = next(tmp_path.glob("samples-*.jsonl"))
    assert len(log.read_text().splitlines()) == 2


def test_record_dict_roundtrip():
    rec = SampleRecord(
        id="b1", received_at=123.5, raw_text="PID\tNAME\n",
        features=FeatureVector.from_counts(40, 4),
        predicted=(Label.SANDBOX, 0.93),
        human_label=Label.TARGET,
        parse_warnings=2,
    )
    assert record_from_dict(record_to_dict(rec)) == rec
    bare = SampleRecord(id="b2", received_at=1.0, raw_text="junk")
    assert record_from_dict(record_to_dict(bare)) == bare


def test_a_record_needs_an_id():
    with pytest.raises(ValueError, match="empty record id"):
        SampleRecord(id="", received_at=1.0, raw_text="x")


def test_submit_response_shape():
    rec = SampleRecord(id="r1", received_at=1.0, raw_text="x",
                       predicted=(Label.TARGET, 0.12))
    doc = submit_response(rec)
    assert doc == {"id": "r1", "verdict": "safe", "probability": 0.12,
                   "label": 0, "parse_warnings": 0}


# -- byte compatibility ------------------------------------------------------------

LISTING = """\
  PID  PPID USER     CMD
    1     0 root     /sbin/init
  212     1 root     /usr/sbin/sshd
  940   212 alice    -bash
   ??   940 carol    broken row
  951   940 bob      -bash
"""
_FEATURES = '{"process_count": 4, "user_count": 3, "ratio": 1.3333333333333333}'
_RAW = json.dumps(LISTING)
GOLDEN = {
    False: (
        '{"verdict": null, "probability": null, "features": ' + _FEATURES + '}',
        '{"id": "r1", "verdict": null, "probability": null, "parse_warnings": 1}',
        '{"id":"r1","received_at":1.5,"raw_text":' + _RAW + ',"features":'
        + _FEATURES.replace(" ", "") + ',"predicted":null,"human_label":null,"parse_warnings":1}',
    ),
    True: (
        '{"verdict": "sandbox", "probability": 1.0, "features": ' + _FEATURES + ', "label": 1}',
        '{"id": "r1", "verdict": "sandbox", "probability": 1.0, "parse_warnings": 1, "label": 1}',
        '{"id":"r1","received_at":1.5,"raw_text":' + _RAW + ',"features":'
        + _FEATURES.replace(" ", "") + ',"predicted":{"label":1,"probability":1.0},'
        '"human_label":null,"parse_warnings":1}',
    ),
}


@pytest.mark.parametrize("with_model", [False, True])
def test_verdict_and_record_bytes_are_pinned(tmp_path, with_model):
    svc = Service(ServiceConfig(data_dir=tmp_path, port=0))
    if with_model:
        svc.activate_model(_toy_tree_doc())
    classify, submit, line = GOLDEN[with_model]
    assert json.dumps(svc.classify(LISTING)) == classify
    record = replace(svc.submit(LISTING), id="r1", received_at=1.5)
    assert json.dumps(submit_response(record)) == submit
    assert json.dumps(record_to_dict(record), separators=(",", ":")) == line


# labelled, unlabelled, re-labelled and featureless records; the last is on a
# later day, so a restart reads them back in this order
_PINNED_STORE = [
    SampleRecord(id="a1", received_at=1_700_000_000.5, raw_text="PID PPID USER CMD\n1 0 r i\n",
                 features=FeatureVector.from_counts(1, 1), predicted=(Label.TARGET, 0.25),
                 human_label=Label.SANDBOX, parse_warnings=1),
    SampleRecord(id="b2", received_at=1_700_000_060.0, raw_text="PID\tNAME\n4\tSystem\n",
                 features=FeatureVector.from_counts(3, 2), predicted=(Label.SANDBOX, 1.0)),
    SampleRecord(id="d4", received_at=1_700_000_120.0, raw_text="x\ty\n"),
    SampleRecord(id="c3", received_at=1_700_100_000.0, raw_text="café ☃ no header\n"),
]
_A1 = ('{"id": "a1", "received_at": 1700000000.5, "raw_text": "PID PPID USER CMD\\n1 0 r i\\n", '
       '"features": {"process_count": 1, "user_count": 1, "ratio": 1.0}, '
       '"predicted": {"label": 0, "probability": 0.25}, "human_label": 1, "parse_warnings": 1}')
_B2 = ('{"id": "b2", "received_at": 1700000060.0, "raw_text": "PID\\tNAME\\n4\\tSystem\\n", '
       '"features": {"process_count": 3, "user_count": 2, "ratio": 1.5}, '
       '"predicted": {"label": 1, "probability": 1.0}, "human_label": null, "parse_warnings": 0}')
_C3 = ('{"id": "c3", "received_at": 1700100000.0, "raw_text": "caf\\u00e9 \\u2603 no header\\n", '
       '"features": null, "predicted": null, "human_label": null, "parse_warnings": 0}')
_D4 = ('{"id": "d4", "received_at": 1700000120.0, "raw_text": "x\\ty\\n", '
       '"features": null, "predicted": null, "human_label": 1, "parse_warnings": 0}')
_PINNED_SAMPLES = {
    "/v1/samples": f"[{_A1}, {_B2}, {_D4}, {_C3}]",
    "/v1/samples?labeled=true": f"[{_A1}, {_D4}]",
    "/v1/samples?labeled=false": f"[{_B2}, {_C3}]",
}


def _replies(base, requests):
    """{path: (status, body bytes)} for (method, path, body) requests sent in order."""
    conn = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=10)
    try:
        replies = {}
        for method, path, body in requests:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            replies[path] = resp.status, resp.read()
        return replies
    finally:
        conn.close()


def test_samples_and_label_reply_bytes_are_pinned(tmp_path):
    serve, config = contextlib.contextmanager(_serve), ServiceConfig(data_dir=tmp_path, port=0)
    relabel = [("POST", "/v1/samples/d4/label", json.dumps({"label": v})) for v in (0, 1)]
    gets = [("GET", path, None) for path in _PINNED_SAMPLES]
    pinned = {path: (200, body.encode("ascii")) for path, body in _PINNED_SAMPLES.items()}
    with serve(config) as (base, service):
        for record in _PINNED_STORE:
            service.store.append(record)
        assert _replies(base, relabel + gets) == {"/v1/samples/d4/label": (200, _D4.encode()),
                                                  **pinned}
    with serve(config) as (base, _):  # a restart reads every listing back from the day files
        assert _replies(base, gets) == pinned


TASKLIST_HEADER = "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
STRICT_422 = {
    "tasklist-malformed-row": (TASKLIST_HEADER + "4\t0\t\t\tSystem\t\n?\t0\t\t\tbad\t\n",
                               "MalformedRow: line 3: non-numeric pid cell '?'"),
    "tasklist-space-short-row": (TASKLIST_HEADER + "4  0  x64  0  System\n7  4\n",
                                 "MalformedRow: line 3: fewer than three cells"),
    "ps-malformed-row": ("PID PPID USER CMD\n1 0 root init\nx 1 root sh\n",
                         "MalformedRow: line 3: non-numeric pid cell 'x'"),
    "ps-duplicate-pid0": (PS_TWO_PID0, "MalformedRow: line 3: duplicate pid-0 row"),
    "header-only": ("PID PPID USER CMD\n", "EmptyListing: header present but no data rows parsed"),
    "pid0-only": ("PID PPID USER CMD\n0 0 root idle\n",
                  "EmptyListing: no countable entries after excluding pid 0"),
    "no-header": (GARBAGE, "UnrecognizedFormat: no tasklist or ps header line found"),
}


@pytest.mark.parametrize("text, error", STRICT_422.values(), ids=STRICT_422.keys())
def test_strict_mode_422_bytes_are_pinned(strict_live, text, error):
    base, service = strict_live
    for route in ("/v1/classify", "/v1/submit"):
        conn = http.client.HTTPConnection("127.0.0.1", _port(base), timeout=10)
        try:
            conn.request("POST", route, body=text.encode("utf-8"))
            resp = conn.getresponse()
            assert (resp.status, resp.read()) == (422, json.dumps({"error": error}).encode())
        finally:
            conn.close()
    assert len(service.store) == 0


def test_cli_classify_out_is_the_classify_document(tmp_path):
    model, listing, out = tmp_path / "tree.json", tmp_path / "host.txt", tmp_path / "v.json"
    model.write_text(json.dumps(_toy_tree_doc()))
    listing.write_text(LISTING)
    assert main(["classify", str(model), "--in", str(listing), "--out", str(out)]) == 0
    assert json.dumps(json.loads(out.read_text())) == GOLDEN[True][0]


def test_response_heads_and_stored_line_are_pinned(live, monkeypatch):
    base, service = live
    monkeypatch.setattr(time, "time", lambda: 1_700_000_000.5)
    monkeypatch.setattr(uuid, "uuid4", lambda: uuid.UUID(int=7))
    posted = f"HTTP/1.1\r\nContent-Length: {len(LISTING)}\r\n\r\n{LISTING}"
    reply = _exchange(base, (  # one keep-alive connection, closed by the 413
        f"POST /v1/classify {posted}POST /v1/submit {posted}GET /v1/model HTTP/1.1\r\n\r\n"
        "GET /v1/nonsense HTTP/1.1\r\n\r\nGET /v1/classify HTTP/1.1\r\n\r\n"
        "GET /v1/export.csv HTTP/1.1\r\n\r\n"
        "POST /v1/classify HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n").encode())
    record_id = uuid.UUID(int=7).hex
    submitted = GOLDEN[False][1].replace('"r1"', f'"{record_id}"')
    json_type, csv_type = "application/json; charset=utf-8", "text/csv; charset=utf-8"
    expected = b""
    for status, content_type, body, extra in [
        (200, json_type, GOLDEN[False][0], ""), (200, json_type, submitted, ""),
        (200, json_type, '{"active": false}', ""),
        (404, json_type, '{"error": "no such resource"}', ""),
        (405, json_type, '{"error": "GET not supported here"}', "Allow: POST\r\n"),
        # the one stored record is unlabeled, so the export is the header row alone
        (200, csv_type, "process_count,user_count,ratio,label,origin\n", ""),
        (413, json_type, '{"error": "body over 16777216 bytes"}', "Connection: close\r\n"),
    ]:
        reason = _Handler.responses[status][0]
        expected += (f"HTTP/1.1 {status} {reason}\r\n"
                     f"Server: {_Handler.server_version} {_Handler.sys_version}"
                     f"\r\nDate: Tue, 14 Nov 2023 22:13:20 GMT\r\n"
                     f"Content-Type: {content_type}\r\n"
                     f"Content-Length: {len(body)}\r\n{extra}\r\n{body}").encode()
    assert reply == expected
    stored = (service.data_dir / "samples" / "samples-20231114.jsonl").read_text()
    line = GOLDEN[False][2].replace('"id":"r1","received_at":1.5',
                                    f'"id":"{record_id}","received_at":1700000000.5')
    assert stored == line + "\n"
