"""The four workloads.  Names are fixed: later issues cite them."""

from bench.workloads import audit_embedded, ingest_embedded, oltp_service, read_mixed

WORKLOADS = {
    module.NAME: module
    for module in (ingest_embedded, oltp_service, read_mixed, audit_embedded)
}
