"""repro.serve — the inference serving subsystem (docs/SERVING.md).

Turns a trained :class:`~repro.forecast.pod_lstm.PODLSTMEmulator` — the
paper's end product, whose whole point is inference orders of magnitude
cheaper than the process model — into a deployable, versioned service:

* :mod:`repro.serve.bundle` — one ``.npz`` artifact per emulator
  (network spec + weights + fitted POD/scaler pipeline state);
* :mod:`repro.serve.registry` — named bundle versions under one
  directory with an atomically-promoted ``ACTIVE`` pointer;
* :mod:`repro.serve.engine` — a micro-batching engine coalescing
  concurrent requests into stacked forward passes, with admission
  control, per-request timeouts and an LRU response cache, under a
  bitwise determinism contract;
* :mod:`repro.serve.loadgen` — one closed-loop load client, run as
  threads against an engine or as threads or processes against a
  router, producing throughput / p50-p95-p99 SLO reports.

The distributed tier scales the same contract across processes:

* :mod:`repro.serve.protocol` — length-prefixed, pickle-free TCP
  framing with typed failure modes;
* :mod:`repro.serve.hashring` — consistent-hash request sharding;
* :mod:`repro.serve.worker` / :mod:`repro.serve.supervisor` — engine
  worker processes and their lifecycle;
* :mod:`repro.serve.router` — the socket front: sharded routing,
  zero-downtime promote, bounded retry-on-respawn.

:class:`~repro.serve.engine.EngineConfig` is the one tuning object of
the tier: it configures the in-process engine and, passed unchanged,
every router worker's engine.

CLI: ``python -m repro.cli serve`` (see ``--help``; ``--router``
starts the multi-process tier).
"""

from repro.serve.bundle import (BUNDLE_FORMAT, BUNDLE_VERSION, load_bundle,
                                read_bundle_header, save_bundle)
from repro.serve.cache import ForecastCache, window_digest
from repro.serve.engine import (EngineConfig, EngineOverloaded,
                                EngineStopped, ForecastEngine,
                                ForecastTimeout)
from repro.serve.hashring import ConsistentHashRing
from repro.serve.loadgen import (SLO_REPORT_FORMAT, SLO_REPORT_VERSION,
                                 SLOReport, nearest_rank_percentile,
                                 run_loadgen, run_router_loadgen,
                                 validate_slo_report)
from repro.serve.protocol import (BadMagic, FrameTooLarge, ProtocolError,
                                  RouterShutdown, TruncatedFrame,
                                  WorkerUnavailable, decode_message,
                                  encode_frame, encode_message, read_frame)
from repro.serve.registry import ModelRegistry
from repro.serve.router import ForecastRouter, RoutedForecast, RouterClient

__all__ = [
    "BUNDLE_FORMAT", "BUNDLE_VERSION",
    "save_bundle", "load_bundle", "read_bundle_header",
    "ModelRegistry",
    "ForecastCache", "window_digest",
    "ForecastEngine", "EngineConfig", "EngineOverloaded", "EngineStopped",
    "ForecastTimeout",
    "SLOReport", "run_loadgen", "run_router_loadgen",
    "nearest_rank_percentile",
    "validate_slo_report", "SLO_REPORT_FORMAT", "SLO_REPORT_VERSION",
    "ProtocolError", "TruncatedFrame", "BadMagic", "FrameTooLarge",
    "RouterShutdown", "WorkerUnavailable",
    "encode_message", "decode_message", "encode_frame", "read_frame",
    "ConsistentHashRing",
    "ForecastRouter", "RouterClient", "RoutedForecast",
]
