"""The long-lived matching service: stdlib HTTP over the tenant registry.

A thin, deterministic HTTP skin (:class:`http.server.ThreadingHTTPServer`,
no third-party dependencies) over :class:`~repro.serve.registry.TenantRegistry`
and :class:`~repro.serve.admission.AdmissionQueue`:

====================================  =========================================
``GET  /healthz``                     liveness (503 once drain begins)
``GET  /readyz``                      readiness (registry loaded + tenants warm)
``GET  /statz``                       admission + per-tenant counters
``GET  /tenants``                     tenant summaries
``POST /tenants/<id>``                create a tenant (body: spec JSON)
``POST /tenants/<id>/match``          score + threshold all cross-source pairs
``POST /tenants/<id>/predict``        score explicit property pairs
``POST /tenants/<id>/add-source``     graceful copy-on-swap reload
``DELETE /tenants/<id>``              remove a tenant
====================================  =========================================

Request handling is thread-per-connection; the heavy endpoints
(``match``/``predict``) pass through the bounded admission queue first,
so overload sheds deterministically (429 + ``Retry-After``) instead of
queueing unbounded work, and a quarantined tenant answers 503 without
consuming a slot.  Response bodies are ``json.dumps(..., sort_keys=True)``
and the handler emits no ``Date``/``Server`` headers, so a response is a
pure function of registry state -- the property the warm-restart
byte-identity chaos tests pin.

Shutdown is drain-then-exit: SIGINT/SIGTERM set the shared stop event
(liveness flips to draining, admission refuses new work), the acceptor
is shut down, in-flight requests get a bounded grace to finish, and
:class:`~repro.errors.GridInterrupted` carries the signal number so the
CLI exits 128+signum exactly like the batch and follow loops.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    ConfigurationError,
    DataError,
    GridInterrupted,
    ReproError,
    TenantQuarantinedError,
)
from repro.serve.admission import (
    AdmissionQueue,
    AdmissionShed,
    DeadlineExceeded,
    ServiceStopping,
)
from repro.serve.probes import ServiceProbes
from repro.serve.registry import TenantRegistry, TenantSpec

#: Largest accepted request body; anything bigger is a client error,
#: never a buffering liability.
_MAX_BODY_BYTES = 1 << 20

#: How often the stop-event wait loop and serve_forever poll wake up.
_WAIT_SLICE = 0.2


class _Handler(BaseHTTPRequestHandler):
    """One HTTP connection; ``service`` is bound per-server via subclass."""

    service: "MatchingService"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: a stalled client cannot pin a handler thread
    #: forever (REP011: every blocking read is bounded).
    timeout = 30.0
    #: TCP_NODELAY: headers and body leave in two sends, and with
    #: Nagle's algorithm on, the body would wait for the client's
    #: delayed ACK (~40 ms) on every keep-alive response.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Per-request stderr chatter is diagnostics the probes already
        # serve; keep handler threads quiet and deterministic.
        pass

    def version_string(self) -> str:
        return "repro-serve"

    # -- plumbing ------------------------------------------------------------
    def _send_json(
        self, code: int, payload: dict, *, retry_after: int | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response_only(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            raise DataError(f"request body over {_MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as problem:
            raise DataError(f"request body is not JSON: {problem}") from None
        if not isinstance(body, dict):
            raise DataError("request body must be a JSON object")
        return body

    def _route(self) -> tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    # -- verbs ---------------------------------------------------------------
    def do_GET(self) -> None:
        probes = self.service.probes
        route = self._route()
        if route == ("healthz",):
            self._send_json(*probes.healthz())
        elif route == ("readyz",):
            self._send_json(*probes.readyz())
        elif route == ("statz",):
            self._send_json(*probes.statz())
        elif route == ("tenants",):
            self._send_json(
                200, {"tenants": self.service.registry.tenant_summaries()}
            )
        else:
            self._send_json(404, {"error": "no such endpoint"})

    def do_POST(self) -> None:
        route = self._route()
        if len(route) == 2 and route[0] == "tenants":
            self._create_tenant(route[1])
        elif len(route) == 3 and route[0] == "tenants":
            tenant_id, action = route[1], route[2]
            if action == "match":
                self._matching(tenant_id, lambda body: self.service.registry.match_payload(tenant_id))
            elif action == "predict":
                self._matching(
                    tenant_id,
                    lambda body: self.service.registry.predict_payload(
                        tenant_id, body.get("pairs", [])
                    ),
                )
            elif action == "add-source":
                self._add_source(tenant_id)
            else:
                self._send_json(404, {"error": "no such endpoint"})
        else:
            self._send_json(404, {"error": "no such endpoint"})

    def do_DELETE(self) -> None:
        route = self._route()
        if len(route) == 2 and route[0] == "tenants":
            try:
                self.service.registry.remove(route[1])
            except DataError as error:
                self._send_json(404, {"error": str(error)})
            else:
                self._send_json(200, {"removed": route[1]})
        else:
            self._send_json(404, {"error": "no such endpoint"})

    # -- handlers ------------------------------------------------------------
    def _create_tenant(self, tenant_id: str) -> None:
        registry = self.service.registry
        try:
            body = self._read_json()
            spec = TenantSpec.from_record(tenant_id, body)
            tenant = registry.create(spec)
        except (ConfigurationError, DataError) as error:
            self._send_json(400, {"error": str(error)})
        except ReproError as error:
            # Poison spec: the registry journaled the quarantine; the
            # process and every other tenant stay healthy.
            self._send_json(
                500,
                {
                    "error": str(error),
                    "error_type": type(error).__name__,
                    "quarantined": True,
                },
            )
        else:
            state = tenant.state
            self._send_json(
                201,
                {
                    "tenant": tenant_id,
                    "system": tenant.spec.system,
                    "properties": len(state.dataset.properties()),
                    "sources": list(state.dataset.sources()),
                },
            )

    def _add_source(self, tenant_id: str) -> None:
        registry = self.service.registry
        try:
            body = self._read_json()
            path = body.get("path")
            if not path:
                raise DataError('add-source body needs {"path": "<csv>"}')
            if registry.get(tenant_id) is None:
                self._send_json(404, {"error": f"no such tenant: {tenant_id}"})
                return
            delta = registry.add_source(tenant_id, path)
        except TenantQuarantinedError as error:
            self._send_json(503, {"error": str(error), "reason": error.reason})
        except (ConfigurationError, DataError) as error:
            self._send_json(400, {"error": str(error)})
        except ReproError as error:
            self._send_json(
                500, {"error": str(error), "error_type": type(error).__name__}
            )
        else:
            self._send_json(200, {"tenant": tenant_id, **delta})

    def _matching(self, tenant_id: str, build_payload) -> None:
        """The admitted request path shared by ``match`` and ``predict``."""
        service = self.service
        registry = service.registry
        tenant = registry.get(tenant_id)
        if tenant is None:
            self._send_json(404, {"error": f"no such tenant: {tenant_id}"})
            return
        if tenant.quarantined:
            # The bulkhead: a quarantined tenant never consumes a slot.
            self._send_json(
                503,
                {
                    "error": f"tenant {tenant_id} is quarantined",
                    "reason": tenant.quarantine.reason,
                },
            )
            return
        try:
            body = self._read_json()
            with service.admission.slot(tenant_id):
                payload = build_payload(body)
        except AdmissionShed as shed:
            self._send_json(
                429,
                {"error": str(shed), "retry_after": shed.retry_after},
                retry_after=shed.retry_after,
            )
        except (DeadlineExceeded, ServiceStopping) as error:
            self._send_json(503, {"error": str(error)})
        except TenantQuarantinedError as error:
            self._send_json(503, {"error": str(error), "reason": error.reason})
        except (ConfigurationError, DataError) as error:
            # Client errors do not count against the tenant's breaker.
            self._send_json(400, {"error": str(error)})
        except Exception as error:  # repro: noqa[REP005] recorded against the tenant breaker and surfaced as a structured 500
            opened = registry.record_failure(tenant_id, error)
            self._send_json(
                500,
                {
                    "error": str(error),
                    "error_type": type(error).__name__,
                    "quarantined": opened,
                },
            )
        else:
            registry.record_success(tenant_id)
            self._send_json(200, payload)


class MatchingService:
    """One long-lived server: registry + admission + HTTP acceptor.

    ``port=0`` binds an ephemeral port (tests, smoke scripts); read
    :attr:`port` after construction.  The acceptor runs on a background
    thread (:meth:`start`); :meth:`serve_until_signalled` is the CLI
    foreground loop with signal-driven drain.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        admission: AdmissionQueue | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_grace: float = 10.0,
    ) -> None:
        self.registry = registry
        self.admission = admission or AdmissionQueue()
        self.probes = ServiceProbes(registry, self.admission)
        self.stop_event = self.admission.stop_event
        self.drain_grace = drain_grace
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._received_signal: int | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Accept connections on a background thread."""
        if self._thread is not None:
            raise ConfigurationError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": _WAIT_SLICE},
            name="repro-serve-acceptor",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> bool:
        """Drain-then-stop; returns whether in-flight work finished."""
        self.stop_event.set()
        self._httpd.shutdown()
        drained = self.admission.await_drain(self.drain_grace)
        if self._thread is not None:
            self._thread.join(self.drain_grace)
            self._thread = None
        self._httpd.server_close()
        return drained

    # -- CLI foreground loop -------------------------------------------------
    def _handle_signal(self, signum, frame) -> None:
        # Async-signal-safe: a single first-wins slot plus an Event.  The
        # exit code reports the signal that *initiated* the drain, and a
        # list append here could run mid-allocation of unrelated code.
        if self._received_signal is None:
            self._received_signal = signum
        self.stop_event.set()

    def serve_until_signalled(self) -> None:
        """Run until SIGINT/SIGTERM, drain, raise :class:`GridInterrupted`.

        Mirrors the follow daemon's contract: the exception carries the
        delivering signal so ``repro serve --http`` exits 128+signum
        after a clean drain.
        """
        previous = {
            signal.SIGINT: signal.signal(signal.SIGINT, self._handle_signal),
            signal.SIGTERM: signal.signal(signal.SIGTERM, self._handle_signal),
        }
        try:
            self.start()
            while not self.stop_event.is_set():
                self.stop_event.wait(_WAIT_SLICE)
            drained = self.stop()
            signum = self._received_signal
            raise GridInterrupted(
                "matching service stopped by signal"
                + ("" if drained else " (drain grace expired)"),
                signum=signum,
            )
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
