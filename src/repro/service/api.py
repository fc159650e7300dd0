"""``repro serve`` — asynchronous prediction/query API over the store.

A stdlib :class:`~http.server.ThreadingHTTPServer` (no new dependencies)
answering from the :class:`~repro.service.store.ResultStore` immediately and
pushing misses onto the :class:`~repro.service.queue.WorkQueue`:

========================  =====================================================
Endpoint                  Behaviour
========================  =====================================================
``GET /healthz``          Liveness probe — ``{"ok": true}``.
``GET /stats``            Store + queue statistics.
``GET /predict?spec_id=`` Store hit -> ``200`` with the result; known job ->
                          ``202`` with its status; unknown -> ``404``.
``POST /predict``         Body = spec JSON.  Store hit -> ``200`` with the
                          result (no simulation runs); miss -> the spec is
                          enqueued and ``202`` reports the job status.  A
                          bad ``Content-Length`` -> ``400``; a body over
                          ``MAX_POST_BYTES`` -> ``413``; a body that stalls
                          ``SOCKET_TIMEOUT_S`` -> connection closed.
``GET /status?spec_id=``  Job status for a spec (``404`` when never seen).
``GET /query?...``        Store query (``topology``, ``trace_id``,
                          ``search_id``, ``scenario``, ``workload``,
                          ``limit``) -> record list.
========================  =====================================================

Misses drain asynchronously: pass ``workers >= 1`` (CLI ``--workers``) to
run background :func:`~repro.service.worker.run_worker` threads inside the
server process, or run separate ``repro work`` processes against the same
store file — the lease protocol makes both equivalent.  A client POSTs a
spec, polls ``/status`` until ``done``, then GETs ``/predict`` — cached
predictions are served instantly while simulation traffic drains in the
background.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.experiments.spec import ExperimentSpec
from repro.service.queue import DEFAULT_LEASE_SECONDS, WorkQueue
from repro.service.store import ResultStore
from repro.service.worker import run_worker
from repro.utils.validation import ValidationError

#: Query-string filters ``GET /query`` forwards to ``ResultStore.query``.
_QUERY_FILTERS = ("spec_id", "topology", "trace_id", "search_id", "scenario", "workload")

#: Largest ``POST /predict`` body accepted (``413`` above); a spec is under 1 KiB.
MAX_POST_BYTES = 1 << 20

#: Seconds one socket read or write may block before the handler drops the
#: connection, so a client that stalls mid-body (or leaves a keep-alive
#: connection idle) cannot hold a handler thread.
SOCKET_TIMEOUT_S = 30.0


class ServiceHandler(BaseHTTPRequestHandler):
    """Request handler; state lives on the owning :class:`ReproServer`."""

    server: "ReproServer"
    protocol_version = "HTTP/1.1"
    timeout = SOCKET_TIMEOUT_S

    # Quiet by default: one access-log line per request drowns test output.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------- plumbing
    def _send(self, code: int, payload: dict[str, Any]) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _post_body(self) -> bytes | None:
        """The request body, or ``None`` once a bad ``Content-Length`` is answered."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if 0 <= length <= MAX_POST_BYTES:
            return self.rfile.read(length)
        # The body stays unread, so the connection cannot carry another request.
        self.close_connection = True
        if length < 0:
            self._send(400, {"error": "Content-Length must be a non-negative integer"})
        else:
            self._send(413, {"error": f"request body over {MAX_POST_BYTES} bytes"})
        return None

    def _query_params(self) -> dict[str, str]:
        return {
            key: values[0]
            for key, values in parse_qs(urlparse(self.path).query).items()
        }

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        route = urlparse(self.path).path.rstrip("/") or "/"
        try:
            if route == "/healthz":
                self._send(200, {"ok": True})
            elif route == "/stats":
                self._send(
                    200,
                    {"store": self.server.store.stats(), "queue": self.server.queue.counts()},
                )
            elif route == "/predict":
                self._get_predict()
            elif route == "/status":
                self._get_status()
            elif route == "/query":
                self._get_query()
            else:
                self._send(404, {"error": f"unknown endpoint {route!r}"})
        except ValidationError as error:
            self._send(400, {"error": str(error)})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        route = urlparse(self.path).path.rstrip("/")
        if route != "/predict":
            self._send(404, {"error": f"unknown endpoint {route!r}"})
            return
        raw = self._post_body()
        if raw is None:
            return
        try:
            data = json.loads(raw) if raw else None
            if not isinstance(data, dict):
                raise ValidationError("POST /predict expects a JSON spec object")
            # Accept both a bare spec and a {"spec": {...}} envelope.
            spec = ExperimentSpec.from_dict(data.get("spec", data))
        except json.JSONDecodeError as error:
            self._send(400, {"error": f"invalid JSON: {error}"})
            return
        except ValidationError as error:
            self._send(400, {"error": str(error)})
            return
        row = self.server.store.get(spec.spec_id)
        if row is not None:
            self._send(
                200,
                {
                    "spec_id": spec.spec_id,
                    "source": "store",
                    "result": row.result,
                    "spec": row.spec,
                },
            )
            return
        report = self.server.queue.enqueue(spec, name="api")
        job = self.server.queue.job_status(spec.spec_id) or {}
        self._send(
            202,
            {
                "spec_id": spec.spec_id,
                "source": "queue",
                "status": job.get("status", "pending"),
                "enqueued": bool(report.enqueued),
                "attempts": job.get("attempts", 0),
            },
        )

    # ------------------------------------------------------------- handlers
    def _require_spec_id(self) -> str:
        spec_id = self._query_params().get("spec_id")
        if not spec_id:
            raise ValidationError("missing required query parameter 'spec_id'")
        return spec_id

    def _get_predict(self) -> None:
        spec_id = self._require_spec_id()
        row = self.server.store.get(spec_id)
        if row is not None:
            self._send(
                200,
                {
                    "spec_id": spec_id,
                    "source": "store",
                    "result": row.result,
                    "spec": row.spec,
                },
            )
            return
        job = self.server.queue.job_status(spec_id)
        if job is not None:
            self._send(
                202,
                {"spec_id": spec_id, "source": "queue", "status": job["status"],
                 "attempts": job["attempts"], "error": job["error"]},
            )
            return
        self._send(
            404,
            {
                "spec_id": spec_id,
                "error": "spec_id not in store and not queued; "
                "POST the full spec to /predict to enqueue it",
            },
        )

    def _get_status(self) -> None:
        spec_id = self._require_spec_id()
        job = self.server.queue.job_status(spec_id)
        stored = spec_id in self.server.store
        if job is None and not stored:
            self._send(404, {"spec_id": spec_id, "error": "never seen"})
            return
        payload: dict[str, Any] = {"spec_id": spec_id, "stored": stored}
        if job is not None:
            payload["job"] = job
        self._send(200, payload)

    def _get_query(self) -> None:
        params = self._query_params()
        unknown = set(params) - set(_QUERY_FILTERS) - {"limit"}
        if unknown:
            raise ValidationError(
                f"unknown query filter(s) {sorted(unknown)}; "
                f"known: {sorted(_QUERY_FILTERS)} + ['limit']"
            )
        filters: dict[str, Any] = {
            key: params[key] for key in _QUERY_FILTERS if key in params
        }
        if "limit" in params:
            try:
                filters["limit"] = int(params["limit"])
            except ValueError:
                raise ValidationError("'limit' must be an integer") from None
        rows = self.server.store.query(**filters)
        self._send(
            200,
            {
                "count": len(rows),
                "results": [
                    {
                        "spec_id": row.spec_id,
                        "topology": row.topology,
                        "rows": row.rows,
                        "cols": row.cols,
                        "scenario": row.scenario,
                        "traffic": row.traffic,
                        "workload": row.workload,
                        "trace_id": row.trace_id,
                        "search_id": row.search_id,
                        "result": row.result,
                    }
                    for row in rows
                ],
            },
        )


class ReproServer(ThreadingHTTPServer):
    """The serving process: HTTP front end + optional background workers.

    Parameters
    ----------
    address:
        ``(host, port)`` bind address (port ``0`` picks a free one — handy
        for tests; the bound port is ``server.server_address[1]``).
    store:
        The shared :class:`ResultStore`.
    queue:
        The shared :class:`WorkQueue` (built on ``store`` when omitted).
    workers:
        Background worker threads draining the queue inside this process;
        ``0`` serves the store read-only and leaves draining to external
        ``repro work`` processes.
    batch_size:
        Jobs each background worker leases per claim; values above ``1``
        make miss storms of gang-compatible specs drain as fused vec
        batches (see :func:`~repro.service.worker.run_worker`).
    verbose:
        Emit per-request access-log lines.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        store: ResultStore,
        queue: WorkQueue | None = None,
        workers: int = 0,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        batch_size: int = 1,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ServiceHandler)
        self.store = store
        self.queue = queue if queue is not None else WorkQueue(store)
        self.verbose = verbose
        self._stop = threading.Event()
        self._workers: list[threading.Thread] = []
        for index in range(workers):
            thread = threading.Thread(
                target=run_worker,
                kwargs={
                    "queue": self.queue,
                    "worker_id": f"serve-{index}",
                    "lease_seconds": lease_seconds,
                    "idle_exit": False,
                    "poll_seconds": 0.2,
                    "stop": self._stop,
                    "batch_size": batch_size,
                },
                daemon=True,
                name=f"repro-serve-worker-{index}",
            )
            thread.start()
            self._workers.append(thread)

    def shutdown(self) -> None:
        """Stop serving and signal the background workers to wind down."""
        self._stop.set()
        super().shutdown()
        for thread in self._workers:
            thread.join(timeout=5.0)


def make_server(
    store: ResultStore | str | Path,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: int = 0,
    batch_size: int = 1,
    verbose: bool = False,
) -> ReproServer:
    """Build a :class:`ReproServer` bound to ``(host, port)`` (not yet serving).

    Examples
    --------
    >>> server = make_server("results.sqlite", port=0)  # doctest: +SKIP
    >>> server.server_address                           # doctest: +SKIP
    ('127.0.0.1', 43817)
    >>> server.serve_forever()                          # doctest: +SKIP
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    return ReproServer(
        (host, port),
        store=store,
        workers=workers,
        batch_size=batch_size,
        verbose=verbose,
    )


__all__ = ["ReproServer", "ServiceHandler", "make_server"]
