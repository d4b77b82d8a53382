"""Span boundaries around the public calls of the program's layers.

Module functions are patched where they are looked up at call time (for
example ``repro.forecast.pipeline.fit_pod``), methods on their class.
Inner calls that belong to an outer boundary get no span of their own: the
feed's snapshot synthesis is ``data.feed``, and ``Network.forward`` is
spanned only in training (``predict`` covers its own forwards).
"""

from __future__ import annotations

from harness import Tracer


def _training(args, kwargs) -> bool:
    return bool(args[2] if len(args) > 2 else kwargs.get("training", False))


def instrument_data(tracer: Tracer) -> None:
    """Patch the data boundaries (snapshot synthesis and the feed)."""
    from repro.data.sst import SyntheticSST
    from repro.pipeline.feed import SnapshotFeed

    current = tracer.current
    tracer.patch(SyntheticSST, "snapshots", lambda a, k: None
                 if current() == "data.feed" else "data.snapshots")
    tracer.patch(SnapshotFeed, "batch", "data.feed")
    tracer.patch(SnapshotFeed, "snapshots", "data.feed")


def instrument(tracer: Tracer) -> None:
    """Patch the data, pod, forecast, nn and nas boundaries."""
    import repro.forecast.pipeline as forecast_pipeline
    import repro.nas.evaluation as evaluation
    import repro.nn.training as training
    import repro.pod as pod
    from repro.forecast.pipeline import PODCoefficientPipeline
    from repro.forecast.pod_lstm import PODLSTMEmulator
    from repro.nn.model import Network
    from repro.nn.optimizers import Adam
    from repro.nn.training import Trainer
    from repro.pod.incremental import IncrementalPOD

    current = tracer.current
    patch = tracer.patch

    instrument_data(tracer)
    patch(forecast_pipeline, "fit_pod", "pod.fit")
    patch(forecast_pipeline, "project_coefficients", "pod.project")
    patch(forecast_pipeline, "reconstruct", "pod.reconstruct")
    patch(pod, "reconstruct", "pod.reconstruct")
    patch(IncrementalPOD, "partial_fit", "pod.partial_fit")
    patch(IncrementalPOD, "basis", "pod.basis")

    for method in ("fit", "transform", "inverse"):
        patch(PODCoefficientPipeline, method, "forecast.scale")
    patch(PODCoefficientPipeline, "windows", "forecast.windows")
    patch(PODLSTMEmulator, "fit", "forecast.fit")
    patch(PODLSTMEmulator, "forecast_fields", "forecast.forecast")
    patch(PODLSTMEmulator, "predict_windows", "forecast.predict",
          count=("forecast.predict_rows", lambda a, k, r: len(r)))

    patch(Trainer, "fit", "nn.train")
    patch(Network, "forward",
          lambda a, k: "nn.forward" if _training(a, k) else None)
    patch(Network, "backward", "nn.backward")
    patch(Adam, "step", "nn.optimizer",
          count=("nn.train_batches", lambda a, k, r: 1))
    patch(training, "clip_gradients", "nn.optimizer")
    patch(Network, "predict",
          lambda a, k: "nn.validate" if current() == "nn.train"
          else "nn.predict")
    patch(evaluation, "build_network", "nas.build_network")


def common_metrics(agg: dict, counts) -> dict[str, float]:
    """Per-layer metrics every workload reports (zero where unused)."""
    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0)

    return {
        "data.snapshots_s": self_s("data.snapshots"),
        "data.feed_s": self_s("data.feed"),
        "pod.fit_s": self_s("pod.fit"),
        "pod.project_s": self_s("pod.project"),
        "pod.reconstruct_s": self_s("pod.reconstruct"),
        "pod.partial_fit_s": self_s("pod.partial_fit"),
        "forecast.windows_s": self_s("forecast.windows"),
        "forecast.predict_rows": float(counts["forecast.predict_rows"]),
        "nn.forward_s": self_s("nn.forward"),
        "nn.backward_s": self_s("nn.backward"),
        "nn.optimizer_s": self_s("nn.optimizer"),
        "nn.train_batches": float(counts["nn.train_batches"]),
        "nn.predict_s": self_s("nn.predict"),
        "nas.build_network_s": self_s("nas.build_network"),
    }
