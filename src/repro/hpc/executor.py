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
the paper counts evaluations. What the two share (the clock, the
tracker, the node RNG streams, the task feed, the checkpoint envelope,
the run and its teardown) is written once, in ``_Campaign``.

Both executors optionally route evaluations through an
:class:`~repro.hpc.parallel.EvaluationBackend` (``backend=`` or
``workers=``): simulated timestamps are assigned exactly as in the
in-loop path, but the evaluations themselves run on a process pool.
A ``backend=`` belongs to the caller and stays open; a pool built from
``workers=`` belongs to the run and is closed when it ends or fails. A
resume is checked before any pool is built, so a refused one starts no
worker process. Backend mode derives one order-stable task stream per
evaluation (:func:`repro.utils.rng.child_sequence`) instead of threading
the node streams through ``evaluate``, so a backend run is bitwise
identical across worker counts — though not to the legacy
``backend=None`` path, whose historical node-stream threading is
preserved untouched (docs/PARALLELISM.md).

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


class _Campaign:
    """What both executors share: setup, checkpoint envelope, run.

    Built fresh from ``rng`` with ``n_streams`` node RNG streams, or from
    a ``resume_state`` (envelope already checked, read from ``source``)
    that must continue the same experiment. The resume is checked before
    any backend exists; a backend built here from ``workers`` is closed
    when the run ends or its setup raises, while a ``backend=`` stays the
    caller's.
    """

    def __init__(self, mode: str, algorithm: SearchAlgorithm,
                 evaluator: Evaluator, partition: ThetaPartition,
                 n_streams: int, source, *,
                 cluster: ClusterConfig | None = None, rng=None,
                 backend: EvaluationBackend | None = None,
                 workers: int | None = None, walltime: float | None = None,
                 checkpoint: CheckpointPolicy | None = None,
                 resume_state: dict | None = None) -> None:
        if backend is not None and workers is not None:
            raise ValueError("pass either backend= or workers=, not both")
        if walltime is not None and walltime <= 0:
            raise ValueError(f"walltime must be positive, got {walltime}")
        uses_backend = backend is not None or workers is not None
        self.mode = mode
        self.algorithm = algorithm
        self.evaluator = evaluator
        self.partition = partition
        self.cluster = cluster or ClusterConfig()
        self.checkpoint = checkpoint
        self.resume_state = resume_state
        self.queue = EventQueue()
        self.task_root = None
        if resume_state is None:
            self.tracker = SearchTracker(partition.n_nodes,
                                         partition.wall_seconds)
            gen = as_generator(rng)
            self.node_rngs = spawn(gen, n_streams)
            if uses_backend:
                # Task streams are grandchildren of the run root (the
                # node streams are its first children) — no collisions.
                self.task_root = as_seed_sequence(gen).spawn(1)[0]
        else:
            self._check_resume(source, uses_backend)
            self.tracker = SearchTracker.from_state(resume_state["tracker"])
            self.queue.now = float(resume_state["now"])
            self.node_rngs = [generator_from_state(s)
                              for s in resume_state["node_rngs"]]
            if uses_backend:
                self.task_root = sequence_from_state(
                    resume_state["task_root"])
        self.end = partition.wall_seconds if walltime is None \
            else min(self.queue.now + walltime, partition.wall_seconds)
        self.owned = backend is None
        self.backend = evaluation_backend(evaluator, workers) \
            if self.owned else backend
        self.feed = None
        if uses_backend:
            try:
                self.feed = TaskFeed(algorithm, self.backend, self.task_root)
                if resume_state is not None:
                    self.feed.load_state_dict(resume_state["feed"])
            except BaseException:
                self.close()
                raise

    def _check_resume(self, source, uses_backend: bool) -> None:
        """Refuse a resume that would continue a different campaign.

        Evaluators that represent external state — e.g. a
        :class:`~repro.nas.benchmark.BenchmarkEvaluator` bound to an
        archive file by content digest — record an identity
        (:func:`repro.nas.evaluation.evaluator_identity`) that a resume
        must match. Evaluators without one (surrogate, real training)
        record ``None`` and skip that check, exactly as all pre-existing
        checkpoints do.
        """
        state = self.resume_state
        check_identity(source, "mode", state.get("mode"), self.mode)
        saved = state["partition"]
        check_identity(source, "partition (nodes, wall seconds)",
                       (int(saved["n_nodes"]), float(saved["wall_seconds"])),
                       (self.partition.n_nodes, self.partition.wall_seconds))
        check_identity(source, "evaluation mode (--workers)",
                       "backend" if state.get("uses_backend") else "in-loop",
                       "backend" if uses_backend else "in-loop")
        if state.get("evaluator") is not None:
            check_identity(source, "evaluator", state["evaluator"],
                           evaluator_identity(self.evaluator))

    def payload(self, **executor_state) -> dict:
        """The campaign checkpoint of the current instant: the envelope
        both executors write, plus ``executor_state``."""
        return {
            "format": CAMPAIGN_FORMAT, "version": CHECKPOINT_VERSION,
            "mode": self.mode,
            "now": float(self.queue.now),
            "partition": {"n_nodes": self.partition.n_nodes,
                          "wall_seconds": self.partition.wall_seconds},
            "cluster": asdict(self.cluster),
            "uses_backend": self.feed is not None,
            "evaluator": evaluator_identity(self.evaluator),
            "task_root": (sequence_state(self.task_root)
                          if self.task_root is not None else None),
            "feed": (self.feed.state_dict() if self.feed is not None
                     else None),
            "algorithm": search_state(self.algorithm),
            "tracker": self.tracker.state_dict(),
            "node_rngs": [generator_state(g) for g in self.node_rngs],
            **executor_state,
        }

    def run(self, scope: str, start, payload) -> SearchTracker:
        """``start()`` the executor's nodes, advance the clock to the
        campaign end writing ``payload()`` as checkpoints, tear down."""
        run_scope = obs.scope(scope)
        try:
            with run_scope:
                start()
                _drive(self.queue, self.end, self.checkpoint, payload)
        finally:
            self.close()
        _record_run_metrics(self.tracker, self.partition,
                            run_scope.elapsed_s)
        return self.tracker

    def close(self) -> None:
        # The final checkpoint (written by _drive) has recorded the
        # look-ahead still in flight; a resume re-submits it, so this
        # run withdraws it instead of leaving it on a caller's pool.
        if self.feed is not None:
            self.feed.cancel()
        if self.owned and self.backend is not None:
            self.backend.close()


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
# Asynchronous execution (aging evolution, random search)
# ---------------------------------------------------------------------------

class _AsyncNodes:
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

    def __init__(self, campaign: _Campaign) -> None:
        self.campaign = campaign
        self.pending: dict[int, dict] = {}
        self.order = 0

    def start(self) -> None:
        """Every node's first launch, or the checkpointed events."""
        state = self.campaign.resume_state
        if state is None:
            for node in range(self.campaign.partition.n_nodes):
                self._start_cycle(node)
            return
        for desc in sorted(state["pending"], key=lambda d: d["order"]):
            self._push(dict(desc, node=int(desc["node"]),
                            when=float(desc["when"])))
        self.order = int(state["order"])

    def payload(self) -> dict:
        return self.campaign.payload(
            pending=sorted(self.pending.values(), key=lambda d: d["order"]),
            order=self.order)

    # -- event plumbing -----------------------------------------------------
    def _schedule(self, desc: dict) -> None:
        desc["order"] = self.order
        self.order += 1
        self._push(desc)

    def _push(self, desc: dict) -> None:
        self.pending[desc["node"]] = desc
        self.campaign.queue.schedule_at(
            desc["when"], lambda node=desc["node"]: self._fire(node))

    def _fire(self, node: int) -> None:
        desc = self.pending.pop(node)
        if desc["kind"] == "launch":
            self._launch(node)
        else:
            self._end(desc)

    # -- node lifecycle -----------------------------------------------------
    def _start_cycle(self, node: int) -> None:
        c = self.campaign
        overhead = c.cluster.sample_launch_overhead(c.node_rngs[node])
        self._schedule({"kind": "launch", "node": node,
                        "when": float(c.queue.now + overhead)})

    def _launch(self, node: int) -> None:
        c = self.campaign
        if c.feed is not None:
            arch, result = c.feed.next_result()
        else:
            arch = c.algorithm.ask()
            result = c.evaluator.evaluate(arch, c.node_rngs[node])
        start = c.queue.now
        c.tracker.node_busy(start)
        failure_frac = c.cluster.sample_failure(c.node_rngs[node])
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

    def _end(self, desc: dict) -> None:
        c = self.campaign
        c.tracker.node_idle(c.queue.now)
        if desc["kind"] == "fail":
            c.tracker.n_failures += 1
        else:
            arch = tuple(desc["arch"])
            c.algorithm.tell(arch, desc["reward"])
            c.tracker.record_evaluation(EvaluationRecord(
                architecture=arch, reward=desc["reward"],
                start_time=desc["start"], end_time=c.queue.now,
                node=desc["node"], n_parameters=desc["n_parameters"]))
        self._start_cycle(desc["node"])


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
    return _asynchronous(
        algorithm, evaluator, partition, "resume_state", cluster=cluster,
        rng=rng, backend=backend, workers=workers, walltime=walltime,
        checkpoint=checkpoint,
        resume_state=_envelope(resume_state, "resume_state"))


def _asynchronous(algorithm: SearchAlgorithm, evaluator: Evaluator,
                  partition: ThetaPartition, source,
                  **campaign) -> SearchTracker:
    if not algorithm.asynchronous:
        raise ValueError(
            f"{type(algorithm).__name__} is synchronous; use "
            "run_synchronous_rl_search")
    campaign = _Campaign("asynchronous", algorithm, evaluator, partition,
                         partition.n_nodes, source, **campaign)
    nodes = _AsyncNodes(campaign)
    return campaign.run("hpc/run_asynchronous_search", nodes.start,
                        nodes.payload)


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
    return _synchronous_rl(
        algorithm, evaluator, partition, "resume_state", cluster=cluster,
        rng=rng, backend=backend, workers=workers, walltime=walltime,
        checkpoint=checkpoint,
        resume_state=_envelope(resume_state, "resume_state"))


def _synchronous_rl(algorithm: DistributedRL, evaluator: Evaluator,
                    partition: ThetaPartition, source,
                    **campaign) -> SearchTracker:
    if algorithm.asynchronous:
        raise ValueError("expected a synchronous (DistributedRL) algorithm")
    alloc = rl_node_allocation(partition.n_nodes, algorithm.n_agents)
    if alloc.workers_per_agent != algorithm.workers_per_agent:
        raise ValueError(
            f"algorithm configured for {algorithm.workers_per_agent} "
            f"workers/agent but {partition.n_nodes} nodes allocate "
            f"{alloc.workers_per_agent}")
    c = _Campaign("synchronous_rl", algorithm, evaluator, partition,
                  alloc.n_workers, source, **campaign)
    queue, tracker, rngs, feed = c.queue, c.tracker, c.node_rngs, c.feed
    wpa = alloc.workers_per_agent
    # Worker w trains archs[w] on node n_agents + w. The index is
    # agent-major, like propose_round's batches, and so is the launch
    # order, which breaks ties between simultaneous events.
    rnd: dict = {}

    def start_round() -> None:
        # A round's start is the only quiescent point: every checkpoint
        # write persists the latest one.
        rnd["boundary"] = c.payload()
        batches = algorithm.propose_round()
        archs = [arch for batch in batches for arch in batch]
        overheads = [c.cluster.sample_launch_overhead(g) for g in rngs]
        if feed is None:
            results = [evaluator.evaluate(arch, g)
                       for arch, g in zip(archs, rngs)]
        else:
            # A whole round is independent given its task seeds, so it is
            # submitted before the first gather — the round is the pool's
            # natural unit of concurrency.
            handles = [c.backend.submit(tuple(arch), feed.next_sequence())
                       for arch in archs]
            results = [c.backend.gather(h) for h in handles]
        fails = [c.cluster.sample_failure(g) for g in rngs]
        rnd.update(batches=batches, archs=archs, results=results,
                   fails=fails, rewards=[0.0] * len(archs),
                   remaining=len(archs))
        for worker, overhead in enumerate(overheads):
            queue.schedule(overhead, lambda worker=worker: launch(worker))

    def launch(worker: int) -> None:
        start = queue.now
        tracker.node_busy(start)
        result, failure_frac = rnd["results"][worker], rnd["fails"][worker]
        if failure_frac is not None:
            queue.schedule(failure_frac * result.duration,
                           lambda: end(worker, start, None))
        else:
            queue.schedule(result.duration,
                           lambda: end(worker, start, result))

    def end(worker: int, start: float, result) -> None:
        tracker.node_idle(queue.now)
        if result is None:
            # The barrier still needs a number: report the punishment
            # reward, count no completed evaluation.
            tracker.n_failures += 1
            rnd["rewards"][worker] = c.cluster.failure_reward
        else:
            rnd["rewards"][worker] = result.reward
            tracker.record_evaluation(EvaluationRecord(
                architecture=tuple(rnd["archs"][worker]),
                reward=result.reward, start_time=start,
                end_time=queue.now, node=alloc.n_agents + worker,
                n_parameters=result.n_parameters))
        rnd["remaining"] -= 1
        if rnd["remaining"] == 0:
            # All-reduce + PPO update: agent nodes busy briefly.
            for _ in range(alloc.n_agents):
                tracker.node_busy(queue.now)
            queue.schedule(c.cluster.rl_update_seconds, update_done)

    def update_done() -> None:
        for _ in range(alloc.n_agents):
            tracker.node_idle(queue.now)
        rewards = rnd["rewards"]
        algorithm.finish_round(rnd["batches"],
                               [rewards[a * wpa:(a + 1) * wpa]
                                for a in range(alloc.n_agents)])
        start_round()

    return c.run("hpc/run_synchronous_rl_search", start_round,
                 lambda: rnd["boundary"])


# ---------------------------------------------------------------------------
# Dispatch and resume
# ---------------------------------------------------------------------------

def run_search(algorithm: SearchAlgorithm, evaluator: Evaluator,
               partition: ThetaPartition, **campaign) -> SearchTracker:
    """Dispatch on the algorithm's execution model; the ``campaign``
    keywords are those of :func:`run_asynchronous_search`."""
    if algorithm.asynchronous:
        return run_asynchronous_search(algorithm, evaluator, partition,
                                       **campaign)
    if not isinstance(algorithm, DistributedRL):
        raise TypeError(
            f"synchronous execution supports DistributedRL, got "
            f"{type(algorithm).__name__}")
    return run_synchronous_rl_search(algorithm, evaluator, partition,
                                     **campaign)


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
    Every refusal names the file (``resume_state`` for a dict).
    """
    state = source if isinstance(source, dict) else read_json(source)
    if state is source:
        source = "resume_state"
    _envelope(state, source)
    algorithm = restore_search(state["algorithm"], space)
    partition = ThetaPartition(
        n_nodes=int(state["partition"]["n_nodes"]),
        wall_seconds=float(state["partition"]["wall_seconds"]))
    if cluster is None:
        cluster = ClusterConfig(**state["cluster"])
    if state.get("uses_backend") and backend is None and workers is None:
        workers = 0
    run = _asynchronous if algorithm.asynchronous else _synchronous_rl
    tracker = run(algorithm, evaluator, partition, source, cluster=cluster,
                  backend=backend, workers=workers, walltime=walltime,
                  checkpoint=checkpoint, resume_state=state)
    return algorithm, tracker


def _envelope(state: dict | None, source) -> dict | None:
    """Refuse a ``state`` that is not a campaign checkpoint, naming
    ``source``, before anything reads it; returns ``state``."""
    if state is not None:
        check_envelope(state, source, fmt=CAMPAIGN_FORMAT,
                       versions=(CHECKPOINT_VERSION,),
                       describe="a campaign checkpoint")
    return state
