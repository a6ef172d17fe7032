"""The ``repro serve`` daemon: a stdlib HTTP front end over a JobStore.

One long-running process owns a :class:`~repro.service.jobstore.
JobStore` and exposes it over HTTP — plain :mod:`http.server` threading
machinery, TCP on localhost or a unix-domain socket, zero dependencies.
Worker threads drain the store's queue; request-handler threads only
touch the thread-safe store API, so a slow job never blocks status
polls.

Endpoints (all JSON unless noted):

========================  ==================================================
``POST /v1/jobs``          Submit ``{"kind", "problem", "options", "fault"}``;
                           returns the job status with ``cached`` set on a
                           cache hit.  ``429`` when the queue is full,
                           ``400`` on invalid problems/options.
``GET /v1/jobs``           Every known job, oldest first.
``GET /v1/jobs/<id>``      One job's status.
``DELETE /v1/jobs/<id>``   Request cancellation.
``GET /v1/jobs/<id>/result``  The cached payload bytes, verbatim
                           (``application/json``); ``409`` until done.
``GET /metrics``           Prometheus text rendering of the store metrics.
``GET /healthz``           ``{"ok": true, ...}`` liveness summary.
========================  ==================================================

Startup always calls :meth:`JobStore.recover` first, so a server killed
with ``SIGKILL`` resumes its in-flight jobs before accepting new ones —
the crash-safety contract lives in the store and the journals, not in
the process lifetime (docs/service.md).

Addresses: ``HOST:PORT`` binds TCP (port ``0`` picks a free port,
reported by :attr:`ServiceServer.address`); anything containing a ``/``
or ending in ``.sock`` binds a unix-domain socket at that path.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, List, Optional, Tuple
from urllib.parse import urlparse

from ..errors import ReproError
from ..obs.events import prometheus_text
from ..obs.logconfig import get_logger
from .jobstore import JobStore, QueueFullError, ServiceError, UnknownJobError

_log = get_logger(__name__)

#: Largest request body accepted, a guard against memory-bomb posts.
MAX_BODY_BYTES = 8 * 1024 * 1024


def is_unix_address(address: str) -> bool:
    """Unix-socket addresses look like paths; TCP ones like HOST:PORT."""
    return "/" in address or address.endswith(".sock")


def split_tcp_address(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        return host, int(port)
    except ValueError as exc:
        raise ServiceError(
            f"invalid TCP address {address!r}; expected HOST:PORT"
        ) from exc


class _UnixHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a unix-domain socket."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            os.unlink(path)
        # Skip the getnameinfo() machinery, meaningless for AF_UNIX.
        self.socket.bind(self.server_address)
        self.server_name = str(self.server_address)
        self.server_port = 0

    def client_address_string(self) -> str:  # pragma: no cover - logging
        return str(self.server_address)


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP request onto the server's JobStore."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # The store is attached to the *server* object by ServiceServer.
    @property
    def store(self) -> JobStore:
        return self.server.job_store  # type: ignore[attr-defined]

    # -- plumbing --------------------------------------------------------
    def log_message(self, fmt: str, *args: object) -> None:
        _log.debug("http: " + fmt, *args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: object) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body)

    def _send_error(self, status: int, code: str, message: str) -> None:
        self._send_json(status, {"error": {"code": code, "message": message}})

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    def _route(self) -> Tuple[str, List[str]]:
        path = urlparse(self.path).path
        return path, [part for part in path.split("/") if part]

    # -- methods ---------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server convention
        path, parts = self._route()
        if parts != ["v1", "jobs"]:
            self._send_error(404, "HTTP", f"no such endpoint {path!r}")
            return
        try:
            data = json.loads(self._read_body().decode("utf-8") or "{}")
            if not isinstance(data, dict):
                raise ServiceError("request body must be a JSON object")
            record, hit = self.store.submit(
                str(data.get("kind", "")),
                str(data.get("problem", "")),
                data.get("options") or {},
                data.get("fault"),
            )
        except QueueFullError as exc:
            self.send_response_only(429)
            self.send_header("Retry-After", "1")
            body = (
                json.dumps(
                    {"error": {"code": exc.code, "message": str(exc)}},
                    sort_keys=True,
                )
                + "\n"
            ).encode("utf-8")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        except ReproError as exc:
            self._send_error(400, exc.code, str(exc))
            return
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error(400, "HTTP", f"bad request body: {exc}")
            return
        status = dict(record.as_dict())
        status["cached"] = hit
        self._send_json(202 if not hit else 200, status)

    def do_GET(self) -> None:  # noqa: N802
        path, parts = self._route()
        try:
            if parts == ["healthz"]:
                self._send_json(
                    200,
                    {
                        "ok": True,
                        "jobs": len(self.store.jobs()),
                        "queue_limit": self.store.queue_limit,
                    },
                )
            elif parts == ["metrics"]:
                text = prometheus_text(self.store.metrics.snapshot())
                self._send(200, text.encode("utf-8"), "text/plain")
            elif parts == ["v1", "jobs"]:
                self._send_json(
                    200,
                    {"jobs": [r.as_dict() for r in self.store.jobs()]},
                )
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send_json(200, self.store.status(parts[2]).as_dict())
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "result"
            ):
                self._send(200, self.store.result_bytes(parts[2]))
            else:
                self._send_error(404, "HTTP", f"no such endpoint {path!r}")
        except UnknownJobError as exc:
            self._send_error(404, exc.code, str(exc))
        except ServiceError as exc:
            self._send_error(409, exc.code, str(exc))

    def do_DELETE(self) -> None:  # noqa: N802
        path, parts = self._route()
        if len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            self._send_error(404, "HTTP", f"no such endpoint {path!r}")
            return
        try:
            cancelled = self.store.cancel(parts[2])
        except UnknownJobError as exc:
            self._send_error(404, exc.code, str(exc))
            return
        self._send_json(200, {"job": parts[2], "cancelled": cancelled})


class ServiceServer:
    """A running scheduling service: HTTP listener + worker threads.

    Args:
        store: The :class:`JobStore` to expose; :meth:`start` recovers
            its journaled jobs before accepting traffic.
        address: ``HOST:PORT`` (TCP, port 0 = ephemeral) or a
            unix-socket path (contains ``/`` or ends in ``.sock``).
        workers: Worker threads draining the job queue.
    """

    def __init__(
        self, store: JobStore, address: str = "127.0.0.1:0", *, workers: int = 1
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.requested_address = address
        self.workers = workers
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._threads: List[threading.Thread] = []
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """The bound address (actual port for TCP port-0 requests)."""
        if self._httpd is None:
            return self.requested_address
        if isinstance(self._httpd, _UnixHTTPServer):
            return str(self._httpd.server_address)
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "ServiceServer":
        """Recover journaled jobs, bind, and start serving in threads."""
        recovered = self.store.recover()
        if recovered:
            _log.info("resuming %d journaled job(s)", recovered)
        if is_unix_address(self.requested_address):
            self._httpd = _UnixHTTPServer(
                self.requested_address, _Handler, bind_and_activate=True
            )
        else:
            host, port = split_tcp_address(self.requested_address)
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.job_store = self.store  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._serve_thread.start()
        _log.info(
            "repro serve listening on %s (%d worker thread(s))",
            self.address,
            self.workers,
        )
        return self

    def _worker_loop(self) -> None:
        while not self.store._closed:
            try:
                self.store.process_one(timeout=0.5)
            except Exception:  # noqa: BLE001 - keep the worker alive
                _log.exception("job worker crashed; continuing")

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`shutdown`."""
        assert self._serve_thread is not None, "call start() first"
        try:
            while self._serve_thread.is_alive():
                self._serve_thread.join(1.0)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting requests and wake the workers."""
        self.store.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            if isinstance(self._httpd, _UnixHTTPServer):
                try:
                    os.unlink(str(self._httpd.server_address))
                except OSError:
                    pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def serve(
    state_dir: str,
    address: str = "127.0.0.1:0",
    *,
    workers: int = 1,
    **store_kwargs: Any,
) -> ServiceServer:
    """Convenience: build a store, start a server, return it running."""
    store = JobStore(state_dir, **store_kwargs)
    return ServiceServer(store, address, workers=workers).start()
