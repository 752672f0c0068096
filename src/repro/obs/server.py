"""HTTP observability endpoint: metrics, health, events and ledger state.

A stdlib-only (`http.server`) endpoint exposing the watchtower to external
scrapers and dashboards:

* ``GET /metrics`` — Prometheus text exposition of the process registry;
* ``GET /healthz`` — JSON liveness + the monitor's last verification
  verdict; returns **503** once the continuous monitor has detected
  tampering, so ordinary HTTP health checking doubles as tamper alerting;
* ``GET /events?since=N&category=...&name=...&limit=K`` — the structured
  event log, filtered and paginated by sequence number;
* ``GET /ledger`` — chain summary: block height, pending entries, digest
  and verification lag;
* ``GET /traces?txn=N`` — the reassembled cross-thread commit lineage for
  transaction N (spans + rendered tree); without ``txn`` lists the
  transaction ids that still have a commit span in the ring.

A query value that does not parse (``since``, ``limit``, ``txn`` must be
integers) answers **400**.

The server binds 127.0.0.1 by default and serves from a daemon thread;
``port=0`` picks an ephemeral port (read back via :attr:`port`), which is
what the tests use.  Reads touching the database take ``db.ledger_lock``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs import OBS


class _BadRequest(Exception):
    """A query value from the client that does not parse: answered 400."""


def _query_value(query, key: str) -> Optional[str]:
    values = query.get(key)
    return values[0] if values else None


def _query_int(query, key: str, default: Optional[int]) -> Optional[int]:
    text = _query_value(query, key)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise _BadRequest(
            f"invalid {key} {text!r}: expected an integer"
        ) from None


class ObservabilityServer:
    """Serves /metrics, /healthz, /events, /ledger and /traces."""

    def __init__(
        self,
        db=None,
        monitor=None,
        event_log=None,
        metrics=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._db = db
        self._monitor = monitor
        self._event_log = event_log if event_log is not None else OBS.events
        self._metrics = metrics if metrics is not None else OBS.metrics
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def start(self) -> "ObservabilityServer":
        if self.running:
            return self
        # Anything scraping /metrics also wants the scraped process's own
        # vitals (RSS, fds, threads, GC) next to the ledger counters.
        from repro.obs.process import install_process_metrics

        install_process_metrics(self._metrics)
        handler = self._make_handler()
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]

        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="obs-server", daemon=True
        )
        self._thread.start()
        OBS.events.emit(
            "monitor", "server.started", host=self.host, port=self.port
        )
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        OBS.events.emit("monitor", "server.stopped", port=self.port)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _resolve_monitor(self):
        """The explicit monitor, else whatever is attached to the db now.

        Resolved per request so a monitor started *after* the server still
        shows up on /healthz.
        """
        if self._monitor is not None:
            return self._monitor
        if self._db is not None:
            return getattr(self._db, "monitor", None)
        return None

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format: str, *args: Any) -> None:
                return  # keep test output and shells quiet

            def do_GET(self) -> None:
                parsed = urlparse(self.path)
                query = parse_qs(parsed.query)
                try:
                    if parsed.path == "/metrics":
                        self._send(
                            200,
                            server._metrics.exposition(),
                            "text/plain; version=0.0.4; charset=utf-8",
                        )
                    elif parsed.path == "/healthz":
                        status, body = server._render_health()
                        self._send_json(status, body)
                    elif parsed.path == "/events":
                        self._send_json(200, server._render_events(query))
                    elif parsed.path == "/ledger":
                        self._send_json(200, server._render_ledger())
                    elif parsed.path == "/traces":
                        self._send_json(200, server._render_traces(query))
                    else:
                        self._send_json(404, {"error": "not found"})
                except _BadRequest as exc:
                    self._send_json(400, {"error": str(exc)})
                except Exception as exc:
                    self._send_json(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )

            def _send(self, status: int, body: str, content_type: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def _send_json(self, status: int, body: Dict[str, Any]) -> None:
                self._send(
                    status,
                    json.dumps(body, indent=2, default=str),
                    "application/json",
                )

        return Handler

    # ------------------------------------------------------------------
    # Endpoint renderers
    # ------------------------------------------------------------------

    def _render_health(self):
        """Health verdict in three tiers, worst wins.

        ``tamper-detected`` (503) — the monitor's last verification failed:
        the ledger itself is suspect.  ``degraded`` (503) — a background
        thread (block builder, continuous monitor) that should be running
        is dead: the ledger is unwatched or blocks pile up unsealed, and
        the body names the dead thread with its last error.  ``ok`` (200)
        otherwise.
        """
        monitor = self._resolve_monitor()
        body: Dict[str, Any] = {}
        problems = []

        if monitor is None:
            body["monitor"] = "not-running"
        else:
            status = monitor.status()
            body["monitor"] = status
            if not monitor.healthy:
                body["status"] = "tamper-detected"
                return 503, body
            if getattr(monitor, "expected_running", False) and not monitor.running:
                problems.append(
                    {
                        "thread": "ledger-monitor",
                        "detail": "monitor thread died; the ledger is unwatched",
                        "last_error": status.get("last_error"),
                    }
                )

        pipeline = getattr(self._db, "pipeline", None) if self._db else None
        if pipeline is not None:
            stats = pipeline.stats()
            body["pipeline"] = stats
            if stats.get("expected_running") and not stats.get("running"):
                problems.append(
                    {
                        "thread": "ledger-block-builder",
                        "detail": "block-builder thread died"
                        + (
                            " and its supervisor gave up"
                            if stats.get("supervisor_gave_up")
                            else ""
                        ),
                        "last_error": stats.get("last_error"),
                    }
                )

        if problems:
            body["status"] = "degraded"
            body["problems"] = problems
            return 503, body
        body["status"] = "ok"
        return 200, body

    def _render_events(self, query) -> Dict[str, Any]:
        since = _query_int(query, "since", -1)
        events = self._event_log.read(
            since=since,
            category=_query_value(query, "category"),
            name=_query_value(query, "name"),
            limit=_query_int(query, "limit", 256),
        )
        return {
            "events": [event.to_dict() for event in events],
            "next_since": events[-1].seq if events else since,
        }

    def _render_traces(self, query) -> Dict[str, Any]:
        """Cross-thread commit lineage for ``?txn=N`` (or list known tids)."""
        from repro.obs.tracing import build_lineage_tree, render_span_tree

        tid = _query_int(query, "txn", None)
        spans = OBS.tracer.recorder.spans()
        if tid is None:
            tids = [
                span.attributes.get("tid")
                for span in spans
                if span.name == "txn.commit"
                and span.attributes.get("tid") is not None
            ]
            return {"transactions": tids[-100:]}
        commit = next(
            (
                span
                for span in reversed(spans)
                if span.name == "txn.commit"
                and span.attributes.get("tid") == tid
            ),
            None,
        )
        if commit is None or commit.trace_id is None:
            return {
                "txn": tid,
                "error": "no trace recorded for this transaction "
                "(tracing disabled, or the spans were evicted)",
            }
        roots = build_lineage_tree(spans, commit.trace_id)
        lineage: list = []

        def _collect(node) -> None:
            lineage.append(node.span.to_dict())
            for child in node.children:
                _collect(child)

        for root in roots:
            _collect(root)
        return {
            "txn": tid,
            "trace_id": commit.trace_id,
            "spans": lineage,
            "tree": render_span_tree(roots),
        }

    def _render_ledger(self) -> Dict[str, Any]:
        """Chain summary from the pipeline's in-memory counters.

        Deliberately avoids the storage lock: block height comes from the
        ledger's cached closed-block height and the rest from per-stage
        counters, so a long-running verification or SQL statement never
        stalls dashboard reads.
        """
        if self._db is None:
            return {"error": "no database attached"}
        monitor = self._resolve_monitor()
        ledger = self._db.ledger
        body: Dict[str, Any] = {
            "block_height": ledger.closed_block_height,
            "open_block_id": ledger.open_block_id,
            "pending_entries": ledger.pending_entries,
            "sealed_blocks_pending": ledger.sealed_pending(),
            "block_size": ledger.block_size,
        }
        pipeline = getattr(self._db, "pipeline", None)
        if pipeline is not None:
            body["pipeline"] = pipeline.stats()
        if monitor is not None:
            body["verified_through_block"] = monitor.verified_through_block
            body["verification_lag"] = monitor.verification_lag
            body["last_verdict"] = monitor.last_verdict
            body["verification_mode"] = monitor.last_mode
            if monitor.incremental:
                body["deep_scan_every"] = monitor.deep_scan_every
                body["deep_scans"] = monitor.deep_scans
                body["checkpoint_block"] = monitor.checkpoint_block
        return body
