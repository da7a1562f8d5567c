"""Dataset & scenario subsystem: ingestion, on-disk store, workload registry.

This package turns the experiment harness from "synthetic generators only"
into a system that can be pointed at arbitrary workloads:

* :mod:`repro.datasets.ingest` — gzip-aware, chunked parsers for the file
  formats real datasets ship in (SNAP edge lists, Matrix Market, DIMACS,
  and a set-cover text format);
* :mod:`repro.datasets.store` — a compact ``.npz`` columnar instance store
  with schema-versioned headers, per-column checksums and memory-mapped
  loading, so converted datasets load in milliseconds;
* :mod:`repro.datasets.scenarios` — the named workload registry
  (``"social-sparse"``, ``"coverage-planning"``, … plus ``file:<path>``)
  that the experiment drivers' ``--scenario`` flags resolve through.

See ``docs/DATASETS.md`` for formats, the store layout, and the scenario
table; ``repro data convert|info|list`` is the CLI surface.
"""

from .ingest import (
    FORMATS,
    IngestError,
    detect_format,
    load_dimacs,
    load_edgelist,
    load_file,
    load_matrix_market,
    load_setcover_text,
)
from .scenarios import (
    SCENARIOS,
    InstanceCache,
    Scenario,
    build_scenario,
    canonical_scenario_spec,
    ensure_edge_weights,
    file_fingerprint,
    instance_cache_stats,
    register_scenario,
    resolve_scenario,
    scenario_names,
    scenario_params,
)
from .store import (
    MAGIC,
    SCHEMA_VERSION,
    ChecksumError,
    DatasetError,
    DatasetFormatError,
    load_dataset,
    read_header,
    save_dataset,
)

__all__ = [
    # store
    "MAGIC",
    "SCHEMA_VERSION",
    "ChecksumError",
    "DatasetError",
    "DatasetFormatError",
    "load_dataset",
    "read_header",
    "save_dataset",
    # ingest
    "FORMATS",
    "IngestError",
    "detect_format",
    "load_dimacs",
    "load_edgelist",
    "load_file",
    "load_matrix_market",
    "load_setcover_text",
    # scenarios
    "SCENARIOS",
    "InstanceCache",
    "Scenario",
    "build_scenario",
    "canonical_scenario_spec",
    "ensure_edge_weights",
    "file_fingerprint",
    "instance_cache_stats",
    "register_scenario",
    "resolve_scenario",
    "scenario_names",
    "scenario_params",
]
