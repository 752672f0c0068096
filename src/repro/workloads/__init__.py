"""Workloads and baselines for the performance evaluation (§4).

* :mod:`repro.workloads.tpcc` — a TPC-C-like order-processing workload with
  the paper's ledger configuration (4 of 9 tables converted).
* :mod:`repro.workloads.tpce` — a TPC-E-like brokerage workload (all 33
  tables converted) with TPC-E's read-heavy transaction mix.
* :mod:`repro.workloads.blockchain_baseline` — a Hyperledger-Fabric-like
  permissioned blockchain used for the §4.1 throughput/latency comparison.
* :mod:`repro.workloads.microbench` — fixed-width-row helpers for the DML
  latency (Figure 8) and verification (Figure 9) experiments.
* :mod:`repro.workloads.harness` — runs each §4 experiment and prints it
  as the paper's table (``python -m repro.workloads.harness all``
  regenerates EXPERIMENTS.md).

Performance claims are measured with ``bench/``, not with these modules.
"""

from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpce import TpceWorkload
from repro.workloads.blockchain_baseline import BlockchainNetwork

__all__ = ["TpccWorkload", "TpceWorkload", "BlockchainNetwork"]
