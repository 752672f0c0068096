"""HTTP observability endpoint: metrics, health, events and ledger state.

A stdlib-only (`http.server`) endpoint exposing the watchtower to external
scrapers and dashboards:

* ``GET /metrics`` — Prometheus text exposition of the process registry;
* ``GET /healthz`` — the database's health verdict
  (:meth:`LedgerDatabase.health`): 200 while it is ``ok``, **503** once it
  is ``degraded`` or the continuous monitor has detected tampering, so
  ordinary HTTP health checking doubles as tamper alerting;
* ``GET /events?since=N&category=...&name=...&limit=K`` — the structured
  event log, filtered and paginated by sequence number;
* ``GET /ledger`` — chain summary: block height, pending entries, digest
  and verification lag;
* ``GET /traces?txn=N`` — the reassembled cross-thread commit lineage for
  transaction N (spans + rendered tree); without ``txn`` lists the
  transaction ids that still have a commit span in the ring.

A query value that does not parse (``since``, ``limit``, ``txn`` must be
integers, ``limit`` not negative) answers **400**.

The server binds 127.0.0.1 by default and serves from a daemon thread;
``port=0`` picks an ephemeral port (read back via :attr:`port`), which is
what the tests use.  No endpoint takes the storage lock
(``db.ledger.storage_lock``).
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
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._db = db
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
                            OBS.metrics.exposition(),
                            "text/plain; version=0.0.4; charset=utf-8",
                        )
                    elif parsed.path == "/healthz":
                        body = (
                            server._db.health() if server._db is not None
                            else {"error": "no database attached"}
                        )
                        ok = body.get("status") == "ok"
                        self._send_json(200 if ok else 503, body)
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

    def _render_events(self, query) -> Dict[str, Any]:
        since = _query_int(query, "since", -1)
        limit = _query_int(query, "limit", 256)
        if limit < 0:
            raise _BadRequest(f"invalid limit {limit}: must not be negative")
        events = OBS.events.read(
            since=since,
            category=_query_value(query, "category"),
            name=_query_value(query, "name"),
            limit=limit,
        )
        return {
            "events": [event.to_dict() for event in events],
            "next_since": events[-1].seq if events else since,
        }

    def _render_traces(self, query) -> Dict[str, Any]:
        """Cross-thread commit lineage for ``?txn=N`` (or list known tids)."""
        from repro.obs.tracing import build_commit_lineage, render_span_tree

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
        roots = build_commit_lineage(spans, tid)
        if not roots:
            return {
                "txn": tid,
                "error": "no trace recorded for this transaction "
                "(tracing disabled, or the spans were evicted)",
            }
        lineage: list = []

        def _collect(node) -> None:
            lineage.append(node.span.to_dict())
            for child in node.children:
                _collect(child)

        for root in roots:
            _collect(root)
        return {
            "txn": tid,
            "spans": lineage,
            "tree": render_span_tree(roots),
        }

    def _render_ledger(self) -> Dict[str, Any]:
        """Chain summary from the pipeline's in-memory counters.

        Deliberately avoids the storage lock: block height comes from the
        ledger's cached closed-block height and the rest from its lock-free
        progress readers, so a long-running verification or SQL statement
        never stalls dashboard reads.
        """
        if self._db is None:
            return {"error": "no database attached"}
        monitor = self._db.monitor
        ledger = self._db.ledger
        body: Dict[str, Any] = {
            "block_height": ledger.closed_block_height,
            "open_block_id": ledger.open_block_id,
            "pending_entries": ledger.pending_entries,
            "sealed_blocks_pending": ledger.sealed_pending(),
            "block_size": ledger.block_size,
        }
        body["pipeline"] = self._db.pipeline.stats()
        if monitor is not None:
            body["verified_through_block"] = monitor.verified_through_block
            body["verification_lag"] = monitor.verification_lag
            body["last_verdict"] = monitor.last_verdict
            body["verification_mode"] = monitor.last_mode
            if monitor.deep_scan_every > 1:
                body["deep_scan_every"] = monitor.deep_scan_every
                body["deep_scans"] = monitor.deep_scans
                body["checkpoint_block"] = monitor.checkpoint_block
        return body
