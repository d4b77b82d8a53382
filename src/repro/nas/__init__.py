"""Neural architecture search (DeepHyper-style) for stacked LSTMs.

Subpackages:

* :mod:`repro.nas.space` — the directed-acyclic-graph search space of
  stacked LSTM architectures (paper Sec. III-A);
* :mod:`repro.nas.algorithms` — aging evolution, distributed PPO
  reinforcement learning, and random search (paper Sec. III-B);
* :mod:`repro.nas.evaluation` — real-training and surrogate evaluators;
* :mod:`repro.nas.surrogate` — the calibrated architecture quality/cost
  model that stands in for single-node Theta trainings at scale;
* :mod:`repro.nas.benchmark` — tabular NAS benchmark archives
  (precomputed evaluation tables and per-epoch curves + a ridge
  fallback for off-table asks, docs/NAS_BENCHMARK.md);
* :mod:`repro.nas.multifidelity` — successive-halving / Hyperband budget
  schedulers over truncated-training fidelities (docs/SEARCH.md).
"""

from repro.nas.space import (
    Architecture,
    HyperparameterGrid,
    Hyperparameters,
    JointArchitectureSpace,
    Operation,
    StackedLSTMSpace,
)
from repro.nas.space.builder import build_network
from repro.nas.algorithms import (
    AgingEvolution,
    DistributedRL,
    GeneticSearch,
    RandomSearch,
    SearchAlgorithm,
)
from repro.nas.evaluation import (
    EvaluationResult,
    Evaluator,
    JointSurrogateEvaluator,
    PacedEvaluator,
    RealTrainingEvaluator,
    SurrogateEvaluator,
    evaluator_identity,
)
from repro.nas.multifidelity import (
    Hyperband,
    SuccessiveHalving,
    resume_multifidelity_campaign,
    run_multifidelity_campaign,
    scheduler_from_config,
)
from repro.nas.surrogate import ArchitecturePerformanceModel
from repro.nas.benchmark import (
    ARCHIVE_FORMAT,
    ARCHIVE_VERSION,
    ArchitectureArchive,
    BenchmarkEvaluator,
    build_archive,
    load_archive,
    read_archive_header,
    run_benchmark_campaign,
    run_seed_sweep,
    validate_sweep_report,
)
from repro.nas.checkpoint import (
    CheckpointPolicy,
    load_checkpoint,
    load_search,
    restore_search,
    save_search,
    search_state,
)

__all__ = [
    "Architecture",
    "Operation",
    "StackedLSTMSpace",
    "Hyperparameters",
    "HyperparameterGrid",
    "JointArchitectureSpace",
    "build_network",
    "SearchAlgorithm",
    "AgingEvolution",
    "DistributedRL",
    "GeneticSearch",
    "RandomSearch",
    "EvaluationResult",
    "Evaluator",
    "PacedEvaluator",
    "RealTrainingEvaluator",
    "SurrogateEvaluator",
    "JointSurrogateEvaluator",
    "evaluator_identity",
    "ArchitecturePerformanceModel",
    "SuccessiveHalving",
    "Hyperband",
    "run_multifidelity_campaign",
    "resume_multifidelity_campaign",
    "scheduler_from_config",
    "ARCHIVE_FORMAT",
    "ARCHIVE_VERSION",
    "ArchitectureArchive",
    "BenchmarkEvaluator",
    "build_archive",
    "load_archive",
    "read_archive_header",
    "run_benchmark_campaign",
    "run_seed_sweep",
    "validate_sweep_report",
    "search_state",
    "save_search",
    "restore_search",
    "load_search",
    "load_checkpoint",
    "CheckpointPolicy",
]
