"""Discrete-event executors for the two execution models.

``run_asynchronous_search`` drives aging evolution / random search: every
node independently cycles (launch overhead -> ask -> train -> tell). No
barrier ever forms; a node is idle only during launch overhead.

``run_synchronous_rl_search`` drives distributed RL with the paper's
multimaster-multiworker layout: per round, each agent's workers each train
one architecture; the round's gradient all-reduce happens only when the
slowest worker anywhere finishes (the global barrier), after which agents
are briefly busy applying the PPO update and the next round starts.
Unused remainder nodes (e.g. 7 of 128) never run anything.

Both return the populated :class:`~repro.hpc.tracking.SearchTracker`.
Evaluations still in flight at the wall limit keep their node busy
(counted in utilization) but are not recorded as completed — matching how
the paper counts evaluations.

Both executors optionally route evaluations through an
:class:`~repro.hpc.parallel.EvaluationBackend` (``backend=`` or
``workers=``): simulated timestamps are assigned exactly as in the
in-loop path, but the evaluations themselves run on a process pool.
Backend mode derives one order-stable task stream per evaluation
(:func:`repro.utils.rng.child_sequence`) instead of threading the node
streams through ``evaluate``, so a backend run is bitwise identical
across worker counts — though not to the legacy ``backend=None`` path,
whose historical node-stream threading is preserved untouched
(docs/PARALLELISM.md).

Walltime-bounded campaigns (docs/CHECKPOINTING.md)
--------------------------------------------------
The paper's searches ran inside fixed 3-hour Theta allocations; a
campaign longer than one allocation must checkpoint and resume. Both
executors therefore accept a simulated ``walltime`` budget (how far this
invocation may advance the clock towards ``partition.wall_seconds``) and
a :class:`~repro.nas.checkpoint.CheckpointPolicy` (where to write, how
often). Node lifecycles are kept as plain-data *pending event*
descriptors rather than closures, so a campaign checkpoint captures the
executor mid-flight exactly: the clock, every node's next event, every
RNG bit-stream, the task-feed position, and the tracker. Resuming via
:func:`resume_search` replays nothing and reseeds nothing — the restored
campaign continues the bit-identical trajectory the uninterrupted run
would have produced (enforced by tests/test_campaign_resume.py). The
synchronous RL search checkpoints at its round barriers — its only
quiescent points — and re-runs any partial round after a resume, which
yields the same trajectory because rounds are deterministic functions of
the boundary state.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro import obs
from repro.durable import atomic_write_json, check_envelope, \
    check_identity, read_json
from repro.hpc.cluster import ClusterConfig
from repro.hpc.event_queue import EventQueue
from repro.hpc.parallel import EvaluationBackend, TaskFeed, \
    evaluation_backend
from repro.hpc.theta import ThetaPartition, rl_node_allocation
from repro.hpc.tracking import EvaluationRecord, SearchTracker
from repro.nas.algorithms.base import SearchAlgorithm
from repro.nas.algorithms.rl_nas import DistributedRL
from repro.nas.checkpoint import CAMPAIGN_FORMAT, CHECKPOINT_VERSION, \
    CheckpointPolicy, restore_search, search_state
from repro.nas.evaluation import Evaluator, evaluator_identity
from repro.utils.rng import as_generator, as_seed_sequence, \
    generator_from_state, generator_state, sequence_from_state, \
    sequence_state, spawn

__all__ = ["run_asynchronous_search", "run_synchronous_rl_search",
           "run_search", "resume_search"]


def _resolve_backend(evaluator: Evaluator,
                     backend: EvaluationBackend | None,
                     workers: int | None
                     ) -> tuple[EvaluationBackend | None, bool]:
    """``(backend, owned)`` for the ``backend=``/``workers=`` pair; an
    executor closes a backend only if it built it here."""
    if backend is not None:
        if workers is not None:
            raise ValueError("pass either backend= or workers=, not both")
        return backend, False
    return evaluation_backend(evaluator, workers), True


def _check_resume_state(resume_state: dict | None, mode: str,
                        partition: ThetaPartition,
                        uses_backend: bool,
                        evaluator: Evaluator) -> dict | None:
    """Refuse a resume that would continue a different campaign.

    Evaluators that represent external state — e.g. a
    :class:`~repro.nas.benchmark.BenchmarkEvaluator` bound to an archive
    file by content digest — record an identity
    (:func:`repro.nas.evaluation.evaluator_identity`) that a resume must
    match. Evaluators without one (surrogate, real training) record
    ``None`` and skip that check, exactly as all pre-existing checkpoints
    do.
    """
    if resume_state is None:
        return None
    source = "resume_state"
    check_envelope(resume_state, source, fmt=CAMPAIGN_FORMAT,
                   versions=(CHECKPOINT_VERSION,),
                   describe="a campaign checkpoint")
    check_identity(source, "mode", resume_state.get("mode"), mode)
    saved = resume_state["partition"]
    check_identity(source, "partition (nodes, wall seconds)",
                   (int(saved["n_nodes"]), float(saved["wall_seconds"])),
                   (partition.n_nodes, partition.wall_seconds))
    check_identity(source, "evaluation mode (--workers)",
                   "backend" if resume_state.get("uses_backend")
                   else "in-loop",
                   "backend" if uses_backend else "in-loop")
    if resume_state.get("evaluator") is not None:
        check_identity(source, "evaluator", resume_state["evaluator"],
                       evaluator_identity(evaluator))
    return resume_state


def _campaign_end(queue: EventQueue, partition: ThetaPartition,
                  walltime: float | None) -> float:
    if walltime is None:
        return partition.wall_seconds
    if walltime <= 0:
        raise ValueError(f"walltime must be positive, got {walltime}")
    return min(queue.now + walltime, partition.wall_seconds)


def _drive(queue: EventQueue, end: float,
           checkpoint: CheckpointPolicy | None, payload) -> None:
    """Advance the clock to ``end``, writing periodic checkpoints.

    ``payload()`` must return the campaign state dict for *the current
    instant* — chunking ``run_until`` at checkpoint marks is trajectory
    neutral, so a checkpointed run and a bare run process the identical
    event sequence.
    """
    if checkpoint is not None and checkpoint.every_seconds is not None:
        next_mark = queue.now + checkpoint.every_seconds
        while next_mark < end:
            queue.run_until(next_mark)
            atomic_write_json(checkpoint.path, payload())
            next_mark += checkpoint.every_seconds
    queue.run_until(end)
    if checkpoint is not None:
        atomic_write_json(checkpoint.path, payload())


# ---------------------------------------------------------------------------
# Asynchronous execution (aging evolution, random search)
# ---------------------------------------------------------------------------

class _AsyncCampaign:
    """Node lifecycles as data: each node owns exactly one pending event.

    Descriptor kinds (``when`` is absolute simulated time):

    * ``launch`` — launch overhead elapses at ``when``; the evaluation is
      requested when it fires;
    * ``finish`` — a successful evaluation completes at ``when``; carries
      the reward/duration/parameter data needed to tell and record;
    * ``fail``  — an injected failure frees the node at ``when``.

    ``order`` preserves heap insertion order across checkpoint/restore so
    simultaneous events keep their tie-break.
    """

    def __init__(self, algorithm: SearchAlgorithm, evaluator: Evaluator,
                 cluster: ClusterConfig, tracker: SearchTracker,
                 queue: EventQueue, node_rngs: list[np.random.Generator],
                 feed: TaskFeed | None) -> None:
        self.algorithm = algorithm
        self.evaluator = evaluator
        self.cluster = cluster
        self.tracker = tracker
        self.queue = queue
        self.node_rngs = node_rngs
        self.feed = feed
        self.pending: dict[int, dict] = {}
        self._order = 0

    # -- event plumbing -----------------------------------------------------
    def _schedule(self, desc: dict) -> None:
        desc["order"] = self._order
        self._order += 1
        self.pending[desc["node"]] = desc
        self.queue.schedule_at(desc["when"],
                               lambda node=desc["node"]: self._fire(node))

    def _fire(self, node: int) -> None:
        desc = self.pending.pop(node)
        if desc["kind"] == "launch":
            self._launch(node)
        elif desc["kind"] == "finish":
            self._finish(desc)
        else:
            self._fail(desc)

    # -- node lifecycle -----------------------------------------------------
    def start_cycle(self, node: int) -> None:
        overhead = self.cluster.sample_launch_overhead(self.node_rngs[node])
        self._schedule({"kind": "launch", "node": node,
                        "when": float(self.queue.now + overhead)})

    def _launch(self, node: int) -> None:
        if self.feed is not None:
            arch, result = self.feed.next_result()
        else:
            arch = self.algorithm.ask()
            result = self.evaluator.evaluate(arch, self.node_rngs[node])
        start = self.queue.now
        self.tracker.node_busy(start)
        failure_frac = self.cluster.sample_failure(self.node_rngs[node])
        if failure_frac is not None:
            # Node crash / NaN loss: the node frees up after the partial
            # run; no reward is reported (asynchronous searches move on).
            self._schedule({
                "kind": "fail", "node": node,
                "when": float(start + failure_frac * result.duration)})
        else:
            self._schedule({
                "kind": "finish", "node": node,
                "when": float(start + result.duration),
                "start": float(start), "arch": list(arch),
                "reward": float(result.reward),
                "n_parameters": int(result.n_parameters)})

    def _finish(self, desc: dict) -> None:
        node = desc["node"]
        self.tracker.node_idle(self.queue.now)
        arch = tuple(desc["arch"])
        self.algorithm.tell(arch, desc["reward"])
        self.tracker.record_evaluation(EvaluationRecord(
            architecture=arch, reward=desc["reward"],
            start_time=desc["start"], end_time=self.queue.now, node=node,
            n_parameters=desc["n_parameters"]))
        self.start_cycle(node)

    def _fail(self, desc: dict) -> None:
        self.tracker.node_idle(self.queue.now)
        self.tracker.n_failures += 1
        self.start_cycle(desc["node"])

    # -- checkpointing ------------------------------------------------------
    def executor_state(self) -> dict:
        return {
            "pending": sorted(self.pending.values(),
                              key=lambda d: d["order"]),
            "order": self._order,
            "node_rngs": [generator_state(g) for g in self.node_rngs],
        }

    def restore(self, state: dict) -> None:
        self.node_rngs = [generator_from_state(s)
                          for s in state["node_rngs"]]
        for desc in sorted(state["pending"], key=lambda d: d["order"]):
            desc = dict(desc, node=int(desc["node"]),
                        when=float(desc["when"]))
            self.pending[desc["node"]] = desc
            self.queue.schedule_at(
                desc["when"], lambda node=desc["node"]: self._fire(node))
        self._order = int(state["order"])


def run_asynchronous_search(algorithm: SearchAlgorithm, evaluator: Evaluator,
                            partition: ThetaPartition, *,
                            cluster: ClusterConfig | None = None,
                            rng=None,
                            backend: EvaluationBackend | None = None,
                            workers: int | None = None,
                            walltime: float | None = None,
                            checkpoint: CheckpointPolicy | None = None,
                            resume_state: dict | None = None
                            ) -> SearchTracker:
    """Simulate a fully asynchronous search (AE or RS).

    ``walltime`` bounds how many simulated seconds this invocation may
    advance the campaign; ``checkpoint`` makes it persist resumable state
    (periodically and at the end); ``resume_state`` is a loaded campaign
    checkpoint to continue from — use :func:`resume_search` rather than
    passing it directly. ``rng`` is ignored on resume (every stream
    continues from its checkpointed position).
    """
    if not algorithm.asynchronous:
        raise ValueError(
            f"{type(algorithm).__name__} is synchronous; use "
            "run_synchronous_rl_search")
    backend, owned = _resolve_backend(evaluator, backend, workers)
    resume_state = _check_resume_state(resume_state, "asynchronous",
                                       partition, backend is not None,
                                       evaluator)
    cluster = cluster or ClusterConfig()
    queue = EventQueue()

    if resume_state is None:
        tracker = SearchTracker(partition.n_nodes, partition.wall_seconds)
        gen = as_generator(rng)
        node_rngs = spawn(gen, partition.n_nodes)
        task_root = None
        feed = None
        if backend is not None:
            # Task streams are grandchildren of the run root (the node
            # streams are its first n_nodes children) — no collisions.
            task_root = as_seed_sequence(gen).spawn(1)[0]
            feed = TaskFeed(algorithm, backend, task_root)
    else:
        tracker = SearchTracker.from_state(resume_state["tracker"])
        queue.now = float(resume_state["now"])
        node_rngs = []  # replaced by campaign.restore below
        task_root = None
        feed = None
        if backend is not None:
            task_root = sequence_from_state(resume_state["task_root"])
            feed = TaskFeed(algorithm, backend, task_root)
            feed.load_state_dict(resume_state["feed"])

    campaign = _AsyncCampaign(algorithm, evaluator, cluster, tracker,
                              queue, node_rngs, feed)

    def payload() -> dict:
        return {
            "format": CAMPAIGN_FORMAT, "version": CHECKPOINT_VERSION,
            "mode": "asynchronous",
            "now": float(queue.now),
            "partition": {"n_nodes": partition.n_nodes,
                          "wall_seconds": partition.wall_seconds},
            "cluster": asdict(cluster),
            "uses_backend": feed is not None,
            "evaluator": evaluator_identity(evaluator),
            "task_root": (sequence_state(task_root)
                          if task_root is not None else None),
            "feed": feed.state_dict() if feed is not None else None,
            "algorithm": search_state(algorithm),
            "tracker": tracker.state_dict(),
            **campaign.executor_state(),
        }

    run_scope = obs.scope("hpc/run_asynchronous_search")
    try:
        with run_scope:
            if resume_state is None:
                for node in range(partition.n_nodes):
                    campaign.start_cycle(node)
            else:
                campaign.restore(resume_state)
            end = _campaign_end(queue, partition, walltime)
            _drive(queue, end, checkpoint, payload)
    finally:
        if owned and backend is not None:
            backend.close()
    _record_run_metrics(tracker, partition, run_scope.elapsed_s)
    return tracker


def _record_run_metrics(tracker: SearchTracker, partition: ThetaPartition,
                        wall_s: float) -> None:
    """Simulated vs wall-clock accounting of one executor run."""
    if not obs.enabled():
        return
    obs.counter_add("hpc/evaluations_completed", tracker.n_evaluations)
    obs.counter_add("hpc/failures", tracker.n_failures)
    obs.counter_add("hpc/simulated_node_seconds",
                    partition.n_nodes * partition.wall_seconds)
    if tracker.n_evaluations:
        obs.gauge_set("hpc/simulated_seconds_per_evaluation",
                      sum(r.duration for r in tracker.records)
                      / tracker.n_evaluations)
    # How much simulated machine time one wall-clock second buys — the
    # speedup of the discrete-event simulation over the real cluster.
    obs.gauge_set("hpc/simulated_per_wall_second",
                  partition.n_nodes * partition.wall_seconds
                  / max(wall_s, 1e-12))


# ---------------------------------------------------------------------------
# Synchronous execution (distributed RL)
# ---------------------------------------------------------------------------

def run_synchronous_rl_search(algorithm: DistributedRL, evaluator: Evaluator,
                              partition: ThetaPartition, *,
                              cluster: ClusterConfig | None = None,
                              rng=None,
                              backend: EvaluationBackend | None = None,
                              workers: int | None = None,
                              walltime: float | None = None,
                              checkpoint: CheckpointPolicy | None = None,
                              resume_state: dict | None = None
                              ) -> SearchTracker:
    """Simulate the synchronous multi-agent RL search.

    Campaign kwargs as in :func:`run_asynchronous_search`. Checkpoints
    are taken at round barriers (the executor's only quiescent points):
    at expiry the file holds the last completed boundary, and a resume
    re-runs the partial round — deterministically identical to the
    uninterrupted continuation.
    """
    if algorithm.asynchronous:
        raise ValueError("expected a synchronous (DistributedRL) algorithm")
    alloc = rl_node_allocation(partition.n_nodes, algorithm.n_agents)
    if alloc.workers_per_agent != algorithm.workers_per_agent:
        raise ValueError(
            f"algorithm configured for {algorithm.workers_per_agent} "
            f"workers/agent but {partition.n_nodes} nodes allocate "
            f"{alloc.workers_per_agent}")
    backend, owned = _resolve_backend(evaluator, backend, workers)
    resume_state = _check_resume_state(resume_state, "synchronous_rl",
                                       partition, backend is not None,
                                       evaluator)
    cluster = cluster or ClusterConfig()
    queue = EventQueue()

    if resume_state is None:
        tracker = SearchTracker(partition.n_nodes, partition.wall_seconds)
        gen = as_generator(rng)
        # Node ids: [0, n_agents) are agents; workers follow.
        worker_rngs = spawn(gen, alloc.n_workers)
        task_root = None
        feed = None
        if backend is not None:
            task_root = as_seed_sequence(gen).spawn(1)[0]
            feed = TaskFeed(algorithm, backend, task_root)
    else:
        tracker = SearchTracker.from_state(resume_state["tracker"])
        queue.now = float(resume_state["now"])
        worker_rngs = [generator_from_state(s)
                       for s in resume_state["node_rngs"]]
        task_root = None
        feed = None
        if backend is not None:
            task_root = sequence_from_state(resume_state["task_root"])
            feed = TaskFeed(algorithm, backend, task_root)
            feed.load_state_dict(resume_state["feed"])

    def boundary_payload() -> dict:
        """Campaign state at a round barrier (no events in flight)."""
        return {
            "format": CAMPAIGN_FORMAT, "version": CHECKPOINT_VERSION,
            "mode": "synchronous_rl",
            "now": float(queue.now),
            "partition": {"n_nodes": partition.n_nodes,
                          "wall_seconds": partition.wall_seconds},
            "cluster": asdict(cluster),
            "uses_backend": feed is not None,
            "evaluator": evaluator_identity(evaluator),
            "task_root": (sequence_state(task_root)
                          if task_root is not None else None),
            "feed": feed.state_dict() if feed is not None else None,
            "algorithm": search_state(algorithm),
            "tracker": tracker.state_dict(),
            "node_rngs": [generator_state(g) for g in worker_rngs],
        }

    # The latest quiescent snapshot; what every checkpoint write persists.
    boundary = {"state": boundary_payload()}

    def evaluate_round(batches):
        """Evaluate one round's batch; a whole round is independent given
        its task seeds, so backend mode submits all of it before the
        first gather — the round is the pool's natural unit of
        concurrency."""
        if feed is None:
            return [[evaluator.evaluate(batches[agent_idx][w],
                                        worker_rngs[agent_idx
                                                    * alloc.workers_per_agent
                                                    + w])
                     for w in range(alloc.workers_per_agent)]
                    for agent_idx in range(alloc.n_agents)]
        handles = [[backend.submit(tuple(batches[agent_idx][w]),
                                   feed.next_sequence())
                    for w in range(alloc.workers_per_agent)]
                   for agent_idx in range(alloc.n_agents)]
        return [[backend.gather(h) for h in row] for row in handles]

    def start_round() -> None:
        batches = algorithm.propose_round()
        rewards = [[0.0] * alloc.workers_per_agent
                   for _ in range(alloc.n_agents)]
        state = {"remaining": alloc.n_workers}

        def worker_finished() -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                barrier_reached()

        overheads = [cluster.sample_launch_overhead(worker_rngs[worker])
                     for worker in range(alloc.n_workers)]
        results = evaluate_round(batches)
        failure_fracs = [cluster.sample_failure(worker_rngs[worker])
                         for worker in range(alloc.n_workers)]
        for agent_idx in range(alloc.n_agents):
            for w in range(alloc.workers_per_agent):
                worker = agent_idx * alloc.workers_per_agent + w
                node = alloc.n_agents + worker
                arch = batches[agent_idx][w]
                overhead = overheads[worker]
                result = results[agent_idx][w]
                failure_frac = failure_fracs[worker]

                def launch(agent_idx=agent_idx, w=w, node=node, arch=arch,
                           result=result, failure_frac=failure_frac) -> None:
                    start = queue.now
                    tracker.node_busy(start)

                    def fail() -> None:
                        # The barrier still needs a number: report the
                        # punishment reward, count no completed evaluation.
                        tracker.node_idle(queue.now)
                        tracker.n_failures += 1
                        rewards[agent_idx][w] = cluster.failure_reward
                        worker_finished()

                    def finish() -> None:
                        tracker.node_idle(queue.now)
                        rewards[agent_idx][w] = result.reward
                        tracker.record_evaluation(EvaluationRecord(
                            architecture=tuple(arch), reward=result.reward,
                            start_time=start, end_time=queue.now, node=node,
                            n_parameters=result.n_parameters))
                        worker_finished()

                    if failure_frac is not None:
                        queue.schedule(failure_frac * result.duration, fail)
                    else:
                        queue.schedule(result.duration, finish)

                queue.schedule(overhead, launch)

        def barrier_reached() -> None:
            # All-reduce + PPO update: agent nodes busy briefly.
            for agent_node in range(alloc.n_agents):
                tracker.node_busy(queue.now)

            def update_done() -> None:
                for agent_node in range(alloc.n_agents):
                    tracker.node_idle(queue.now)
                algorithm.finish_round(batches, rewards)
                boundary["state"] = boundary_payload()
                start_round()

            queue.schedule(cluster.rl_update_seconds, update_done)

    run_scope = obs.scope("hpc/run_synchronous_rl_search")
    try:
        with run_scope:
            start_round()
            end = _campaign_end(queue, partition, walltime)
            _drive(queue, end, checkpoint, lambda: boundary["state"])
    finally:
        if owned and backend is not None:
            backend.close()
    _record_run_metrics(tracker, partition, run_scope.elapsed_s)
    return tracker


# ---------------------------------------------------------------------------
# Dispatch and resume
# ---------------------------------------------------------------------------

def run_search(algorithm: SearchAlgorithm, evaluator: Evaluator,
               partition: ThetaPartition, *,
               cluster: ClusterConfig | None = None,
               rng=None, backend: EvaluationBackend | None = None,
               workers: int | None = None,
               walltime: float | None = None,
               checkpoint: CheckpointPolicy | None = None,
               resume_state: dict | None = None) -> SearchTracker:
    """Dispatch on the algorithm's execution model."""
    if algorithm.asynchronous:
        return run_asynchronous_search(algorithm, evaluator, partition,
                                       cluster=cluster, rng=rng,
                                       backend=backend, workers=workers,
                                       walltime=walltime,
                                       checkpoint=checkpoint,
                                       resume_state=resume_state)
    if not isinstance(algorithm, DistributedRL):
        raise TypeError(
            f"synchronous execution supports DistributedRL, got "
            f"{type(algorithm).__name__}")
    return run_synchronous_rl_search(algorithm, evaluator, partition,
                                     cluster=cluster, rng=rng,
                                     backend=backend, workers=workers,
                                     walltime=walltime,
                                     checkpoint=checkpoint,
                                     resume_state=resume_state)


def resume_search(source, space, evaluator: Evaluator, *,
                  backend: EvaluationBackend | None = None,
                  workers: int | None = None,
                  walltime: float | None = None,
                  checkpoint: CheckpointPolicy | None = None,
                  cluster: ClusterConfig | None = None):
    """Continue a campaign from a checkpoint file (or loaded dict).

    Rebuilds the algorithm (exact RNG state included), the partition and
    the cluster model from the checkpoint, then drives the matching
    executor from where the clock stopped. Returns ``(algorithm,
    tracker)`` — the tracker covers the *whole* campaign so far, not just
    this allocation.

    A checkpoint written in backend mode defaults to the in-process
    serial backend on resume (bitwise identical to any pool size); one
    written with in-loop evaluation must be resumed without ``workers``.
    """
    state = source if isinstance(source, dict) else read_json(source)
    check_envelope(state, "resume_state" if state is source else source,
                   fmt=CAMPAIGN_FORMAT, versions=(CHECKPOINT_VERSION,),
                   describe="a campaign checkpoint")
    algorithm = restore_search(state["algorithm"], space)
    partition = ThetaPartition(
        n_nodes=int(state["partition"]["n_nodes"]),
        wall_seconds=float(state["partition"]["wall_seconds"]))
    if cluster is None:
        cluster = ClusterConfig(**state["cluster"])
    if state.get("uses_backend") and backend is None and workers is None:
        workers = 0
    tracker = run_search(algorithm, evaluator, partition, cluster=cluster,
                         backend=backend, workers=workers,
                         walltime=walltime, checkpoint=checkpoint,
                         resume_state=state)
    return algorithm, tracker
