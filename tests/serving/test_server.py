"""HTTP front-end tests: route behaviour, parity with direct execution,
error mapping, stats exposure, and the snapshot /swap endpoint."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import Blend, Seekers
from repro.serving import BlendServer
from repro.serving.server import _MAX_BODY

from tests.index.test_snapshot import plant_global_pickle
from tests.serving.conftest import build_blend, make_lake


@pytest.fixture(scope="module")
def server(served_blend):
    with BlendServer(
        served_blend, workers=2, max_batch=16
    ).start() as srv:
        yield srv


def _post(url: str, path: str, body: dict):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str, path: str):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _hits(body: dict):
    return [(hit["table_id"], hit["score"]) for hit in body["results"]]


def _expected_hits(result):
    return [(hit.table_id, hit.score) for hit in result]


def test_query_parity_all_modalities(server, served_blend):
    context = served_blend.context()
    cases = [
        (
            {"modality": "sc", "values": ["berlin", "paris", "rome"], "k": 5},
            Seekers.SC(["berlin", "paris", "rome"], k=5),
        ),
        (
            {"modality": "kw", "values": ["germany", "france"], "k": 4},
            Seekers.KW(["germany", "france"], k=4),
        ),
        (
            {
                "modality": "mc",
                "tuples": [["berlin", "germany"], ["oslo", "norway"]],
                "k": 5,
            },
            Seekers.MC([("berlin", "germany"), ("oslo", "norway")], k=5),
        ),
    ]
    for body, seeker in cases:
        status, payload = _post(server.url, "/query", body)
        assert status == 200, payload
        assert payload["generation"] == served_blend.lake.generation
        assert _hits(payload) == _expected_hits(seeker.execute(context))


def test_concurrent_http_queries_batch_and_stay_correct(server, served_blend):
    context = served_blend.context()
    body = {"modality": "sc", "values": ["berlin", "paris"], "k": 5}
    expected = _expected_hits(Seekers.SC(["berlin", "paris"], k=5).execute(context))
    results = []

    def fire() -> None:
        results.append(_post(server.url, "/query", body))

    threads = [threading.Thread(target=fire) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    for status, payload in results:
        assert status == 200
        assert _hits(payload) == expected


def test_keep_alive_requests_do_not_stall_on_delayed_ack(server):
    """A reply written as two small segments (headers, then body) makes
    every request on a keep-alive connection wait out the client's ~40 ms
    delayed ACK before the body is sent; a reply sent in one write does
    not."""
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    body = json.dumps({"modality": "kw", "values": ["germany", "france"], "k": 4})
    latencies = []
    try:
        for _ in range(15):
            started = time.perf_counter()
            connection.request(
                "POST", "/query", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            latencies.append(time.perf_counter() - started)
            assert response.status == 200, payload
    finally:
        connection.close()
    assert statistics.median(latencies) < 0.020, latencies


def test_bad_requests_are_400(server):
    for body in (
        {"modality": "nope", "values": ["x"]},
        {"modality": "sc"},
        {"modality": "sc", "values": []},
        {"modality": "mc", "tuples": []},
        {"modality": "sc", "values": ["x"], "k": 0},
        {"modality": "sc", "values": ["x"], "timeout_ms": -5},
        {"modality": "sc", "values": ["x"], "k": True},  # bool is an int
        {"modality": "sc", "values": ["x"], "timeout_ms": True},
    ):
        status, payload = _post(server.url, "/query", body)
        assert status == 400, (body, payload)
        assert "error" in payload

    # Malformed JSON
    request = urllib.request.Request(
        server.url + "/query",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status = response.status
    except urllib.error.HTTPError as error:
        status = error.code
        error.read()
    assert status == 400


def _raw_exchange(address, request: bytes) -> bytes:
    """Send *request* on one keep-alive connection and return every byte
    the server answers until it closes the connection (or goes quiet)."""
    received = b""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        sock.settimeout(0.5)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except socket.timeout:
            pass  # still open: the server kept the connection alive
    return received


@pytest.mark.parametrize(
    "request_line,length,status",
    [
        ("POST /query", _MAX_BODY + 10, 413),  # oversized: refused unread
        ("POST /query", "nonsense", 400),  # body extent unknown
        ("POST /nope", 51, 404),  # no route reads it
        ("GET /health", 51, 200),
    ],
)
def test_unread_body_is_not_parsed_as_the_next_request(server, request_line, length, status):
    """A request whose declared body the server does not read must end
    the keep-alive connection: left open, the body bytes are parsed as a
    second request (here one spelling ``POST /swap``)."""
    smuggled = b"POST /swap HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
    assert len(smuggled) == 51
    head = f"{request_line} HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
    received = _raw_exchange(server.address, head.encode() + smuggled)
    assert received.startswith(f"HTTP/1.1 {status} ".encode()), received[:80]
    assert received.count(b"HTTP/1.1 ") == 1, received
    assert b"Connection: close" in received


def test_consumed_body_keeps_the_connection_alive(server):
    """The counterpart: a body that WAS read leaves nothing behind, so
    the connection stays open and the next request on it is served."""
    body = json.dumps({"modality": "kw", "values": ["germany"], "k": 2}).encode()
    head = f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
    received = _raw_exchange(server.address, (head.encode() + body) * 2)
    assert received.count(b"HTTP/1.1 200 ") == 2, received
    assert b"Connection: close" not in received


def test_unknown_route_is_404(server):
    assert _get(server.url, "/nope")[0] == 404
    assert _post(server.url, "/nope", {})[0] == 404


def test_health_and_stats(server, served_blend):
    status, health = _get(server.url, "/health")
    assert status == 200
    assert health == {"status": "ok", "generation": served_blend.lake.generation}

    status, stats = _get(server.url, "/stats")
    assert status == 200
    for field in (
        "completed",
        "queries_per_sec",
        "latency_ms",
        "batch_size_histogram",
        "by_modality",
        "plan_cache",
        "generation",
        "timeouts",
    ):
        assert field in stats, field
    assert stats["completed"] > 0
    assert 0.0 <= stats["plan_cache"]["hit_rate"] <= 1.0


def test_http_snapshot_swap(tmp_path):
    """POST /swap loads the snapshot and flips generations with traffic
    still being answered."""
    old = build_blend(seed=31, tables=6)
    new = Blend(
        make_lake(31, tables=6, extra_rows=[["quito", "ecuador", 3]] * 5),
        backend="column",
    )
    new.build_index()
    snapshot = new.save(tmp_path / "snap")

    with BlendServer(old, workers=2, max_batch=8).start() as server:
        status, before = _post(
            server.url, "/query", {"modality": "sc", "values": ["quito"], "k": 3}
        )
        assert status == 200 and before["generation"] == old.lake.generation

        status, report = _post(server.url, "/swap", {"snapshot": str(snapshot)})
        assert status == 200, report
        assert report["old_generation"] == old.lake.generation
        assert report["new_generation"] == new.lake.generation
        assert report["drained"] is True

        status, after = _post(
            server.url, "/query", {"modality": "sc", "values": ["quito"], "k": 3}
        )
        assert status == 200
        assert after["generation"] == new.lake.generation
        expected = Seekers.SC(["quito"], k=3).execute(new.context())
        assert _hits(after) == _expected_hits(expected)

        status, stats = _get(server.url, "/stats")
        assert stats["swaps"] == 1

        status, bad = _post(server.url, "/swap", {"snapshot": ""})
        assert status == 503  # ServingError: missing path

        status, missing = _post(
            server.url, "/swap", {"snapshot": str(tmp_path / "nope")}
        )
        assert status in (409, 500)  # SnapshotError surface


def test_http_swap_refuses_a_payload_pickle_naming_a_global(tmp_path):
    """POST /swap reads a client-named directory: a lake payload planted
    with a ``__reduce__`` pickle (size and CRC fixed in the manifest) is
    a 409, nothing it names runs, and the old generation keeps serving."""
    old = build_blend(seed=31, tables=6)
    snapshot = Path(build_blend(seed=37, tables=6).save(tmp_path / "snap"))
    marker = tmp_path / "marker"
    plant_global_pickle(snapshot, "manifest.json", "lake.pkl", marker)
    with BlendServer(old, workers=2, max_batch=8).start() as server:
        status, body = _post(server.url, "/swap", {"snapshot": str(snapshot)})
        assert status == 409, body
        assert "lake.pkl" in json.dumps(body)
        status, after = _post(
            server.url, "/query", {"modality": "sc", "values": ["berlin"], "k": 3}
        )
        assert status == 200 and after["generation"] == old.lake.generation
    assert not marker.exists()
