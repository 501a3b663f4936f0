"""HTTP front end: discovery-as-a-service over a deployment manager.

Stdlib-only (``http.server.ThreadingHTTPServer``); each connection gets
a handler thread that parses the request, submits it to the shared
:class:`BatchScheduler`, and blocks on the outcome -- which is exactly
what makes batching work: N concurrent connections become N queued
requests, and whatever queued while the workers were busy runs as one
batch.

Endpoints::

    POST /query   {"modality": "sc"|"kw"|"mc", "values": [...] |
                   "tuples": [[...], ...], "k": 10, "timeout_ms": 2000}
              ->  {"generation": 3, "batch_size": 7,
                   "results": [{"table_id": 12, "score": 4.0}, ...]}
    GET  /stats   serving metrics + plan-cache hit rate
    GET  /health  {"status": "ok", "generation": 3}
    POST /swap    {"snapshot": "/path/to/snapshot"}  -- zero-downtime
              ->  {"old_generation": ..., "new_generation": ...,
                   "drained": true, "seconds": ...}

Errors map to status codes: malformed request / bad seeker spec -> 400,
deadline missed -> 408, snapshot problems on swap -> 409, body over
``_MAX_BODY`` -> 413, scheduler shut down -> 503, anything else -> 500.
Every error body is ``{"error": "<type>", "detail": "<message>"}``. A
reply to a request whose declared body was not read closes the
connection: on keep-alive the unread bytes would be parsed as the next
request.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from ..core.seekers import Seeker, Seekers
from ..core.system import Blend
from ..errors import (
    BlendError,
    RequestTimeoutError,
    SeekerError,
    ServingError,
    SnapshotError,
)
from .deployment import DeploymentManager
from .scheduler import DEFAULT_MAX_BATCH, BatchScheduler
from .stats import ServingStats

_MAX_BODY = 8 << 20  # requests are queries, not uploads
REQUEST_TIMEOUT_S = 30.0  # a query's deadline unless its body sets timeout_ms


class PayloadTooLarge(ValueError):
    """The declared ``Content-Length`` exceeds ``_MAX_BODY`` (-> 413)."""


def build_seeker(payload: dict[str, Any]) -> tuple[Seeker, tuple]:
    """Translate one request body into a seeker plus its coalescing key
    (two byte-identical payloads must produce equal keys)."""
    modality = payload.get("modality")
    if not isinstance(modality, str):
        raise SeekerError("request must name a modality: sc, kw, or mc")
    modality = modality.lower()
    k = payload.get("k", 10)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise SeekerError("k must be a positive integer")
    if modality in ("sc", "kw"):
        values = payload.get("values")
        if not isinstance(values, list) or not values:
            raise SeekerError(f"{modality} request needs a non-empty 'values' list")
        seeker: Seeker = (Seekers.SC if modality == "sc" else Seekers.KW)(values, k=k)
        return seeker, (modality, tuple(seeker.tokens), k)  # type: ignore[attr-defined]
    if modality == "mc":
        tuples = payload.get("tuples")
        if not isinstance(tuples, list) or not tuples:
            raise SeekerError("mc request needs a non-empty 'tuples' list of rows")
        seeker = Seekers.MC(tuples, k=k)
        return seeker, (modality, tuple(seeker.tuples), k)
    raise SeekerError(f"unknown modality: {modality!r}")


class BlendServer:
    """The serving tier assembled: deployment manager + scheduler +
    threaded HTTP server, each stoppable as one unit.

    ``port=0`` binds an ephemeral port (tests, demos); the bound address
    is ``server.address`` after ``start()``.
    """

    def __init__(
        self,
        blend: Blend,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self.stats = ServingStats()
        self.manager = DeploymentManager(blend)
        self.scheduler = BatchScheduler(
            self.manager,
            stats=self.stats,
            workers=workers,
            max_batch=max_batch,
        )
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "BlendServer":
        # Idempotent: ``with BlendServer(...).start()`` enters the
        # context manager on an already-started server, and a second
        # ``serve_forever`` loop on one socket would wedge shutdown (the
        # first exiting loop resets the shutdown flag under the other).
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="blend-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.scheduler.close()

    def __enter__(self) -> "BlendServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- request handling (called from handler threads) ------------------------------

    def handle_query(self, payload: dict[str, Any]) -> dict[str, Any]:
        seeker, key = build_seeker(payload)
        timeout = REQUEST_TIMEOUT_S
        timeout_ms = payload.get("timeout_ms")
        if timeout_ms is not None:
            if (
                isinstance(timeout_ms, bool)
                or not isinstance(timeout_ms, (int, float))
                or timeout_ms <= 0
            ):
                raise SeekerError("timeout_ms must be a positive number")
            timeout = timeout_ms / 1e3
        outcome = self.scheduler.execute(seeker, timeout=timeout, key=key)
        return {
            "generation": outcome.generation,
            "batch_size": outcome.batch_size,
            "results": [
                {"table_id": hit.table_id, "score": hit.score}
                for hit in outcome.result
            ],
        }

    def handle_stats(self) -> dict[str, Any]:
        deployment = self.manager.current()
        snapshot = self.stats.snapshot(
            plan_cache=deployment.blend.db.plan_cache_stats()
        )
        snapshot["generation"] = deployment.generation
        snapshot["inflight"] = deployment.inflight
        return snapshot

    def handle_health(self) -> dict[str, Any]:
        return {"status": "ok", "generation": self.manager.current().generation}

    def handle_swap(self, payload: dict[str, Any]) -> dict[str, Any]:
        path = payload.get("snapshot")
        if not isinstance(path, str) or not path:
            raise ServingError("swap request needs a 'snapshot' path")
        replacement = Blend.load(path)
        return self.swap(replacement)

    def swap(self, blend: Blend) -> dict[str, Any]:
        """Programmatic hot-swap (the HTTP /swap route calls this after
        loading the snapshot)."""
        report = self.manager.swap(blend)
        self.stats.record_swap()
        return {
            "old_generation": report.old_generation,
            "new_generation": report.new_generation,
            "drained": report.drained,
            "seconds": report.seconds,
        }


def _status_of(error: BaseException) -> int:
    if isinstance(error, RequestTimeoutError):
        return 408
    if isinstance(error, PayloadTooLarge):
        return 413
    if isinstance(error, SnapshotError):
        return 409
    if isinstance(error, ServingError):
        return 503
    if isinstance(error, (SeekerError, ValueError)):
        return 400
    return 500


def _make_handler(server: BlendServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args: Any) -> None:  # quiet by default
            pass

        # Buffered, so headers and body leave in ONE write (flushed per
        # request by ``handle_one_request``). As two small segments, the
        # body would wait -- Nagle -- for the client's delayed ACK of the
        # headers: ~40 ms on every keep-alive request.
        wbufsize = 1 << 16

        def _reply(self, status: int, body: dict[str, Any]) -> None:
            data = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)

        def _skip_body(self) -> None:
            """This route reads no body. If the request declared one, its
            bytes stay on the socket, where a keep-alive connection would
            parse them as the NEXT request (smuggling) -- so close."""
            if "Content-Length" in self.headers or "Transfer-Encoding" in self.headers:
                self.close_connection = True

        def _json_body(self) -> dict[str, Any]:
            # Until the declared body is read off the socket, every way
            # out of here closes the connection (see ``_skip_body``).
            closing, self.close_connection = self.close_connection, True
            length = int(self.headers.get("Content-Length") or 0)
            if length > _MAX_BODY:
                raise PayloadTooLarge(f"request body exceeds {_MAX_BODY} bytes")
            if length <= 0:
                raise ValueError("request needs a JSON body")
            raw = self.rfile.read(length)
            self.close_connection = closing
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload

        def _dispatch(self, route) -> None:
            try:
                self._reply(200, route())
            except json.JSONDecodeError as exc:
                self._reply(400, {"error": "bad_json", "detail": str(exc)})
            except (BlendError, ValueError) as exc:
                self._reply(
                    _status_of(exc),
                    {"error": type(exc).__name__, "detail": str(exc)},
                )
            except Exception as exc:  # never tear down the connection thread
                self._reply(500, {"error": type(exc).__name__, "detail": str(exc)})

        def do_GET(self) -> None:
            self._skip_body()
            if self.path == "/stats":
                self._dispatch(server.handle_stats)
            elif self.path == "/health":
                self._dispatch(server.handle_health)
            else:
                self._reply(404, {"error": "not_found", "detail": self.path})

        def do_POST(self) -> None:
            if self.path == "/query":
                self._dispatch(lambda: server.handle_query(self._json_body()))
            elif self.path == "/swap":
                self._dispatch(lambda: server.handle_swap(self._json_body()))
            else:
                self._skip_body()
                self._reply(404, {"error": "not_found", "detail": self.path})

    return Handler
