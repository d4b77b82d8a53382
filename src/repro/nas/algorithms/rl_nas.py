"""Distributed reinforcement-learning NAS (paper Sec. III-B2).

The multimaster-multiworker paradigm: ``n_agents`` PPO masters each
generate a batch of ``workers_per_agent`` architectures, dispatch them to
their workers, wait for *all* rewards (the synchronization the paper
blames for RL's poor node utilization), compute local gradients, then
**all-reduce with the mean operator** and apply the identical averaged
update everywhere — so all agents share one policy trajectory but explore
with different RNG streams.

The class is executor-agnostic: the simulated cluster calls
``propose_round()`` to get every agent's batch and ``finish_round()`` once
all evaluations of the round completed.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from repro.nas.algorithms.base import SearchAlgorithm
from repro.nas.algorithms.ppo import PPOAgent, PPOConfig
from repro.nas.space.search_space import Architecture, StackedLSTMSpace
from repro.utils.rng import spawn
from repro.utils.validation import check_positive_int

__all__ = ["DistributedRL"]


class DistributedRL(SearchAlgorithm):
    """Synchronous multi-agent PPO search.

    Parameters
    ----------
    n_agents:
        Number of policy masters (paper: fixed at 11).
    workers_per_agent:
        Evaluations per agent per round — set from the node count by the
        cluster model (paper Sec. IV: e.g. 10 workers/agent on 128 nodes).
    """

    asynchronous = False

    def __init__(self, space: StackedLSTMSpace, rng=None, *,
                 n_agents: int = 11, workers_per_agent: int = 10,
                 config: PPOConfig | None = None) -> None:
        super().__init__(space, rng)
        self.n_agents = check_positive_int(n_agents, name="n_agents")
        self.workers_per_agent = check_positive_int(
            workers_per_agent, name="workers_per_agent")
        agent_rngs = spawn(self.rng, self.n_agents)
        self.agents = [PPOAgent(space, rng=r, config=config)
                       for r in agent_rngs]
        self.round_index = 0

    # ------------------------------------------------------------------
    # Round-based protocol (used by the synchronous executor)
    # ------------------------------------------------------------------
    def propose_round(self) -> list[list[Architecture]]:
        """One batch per agent: ``[agent][worker] -> architecture``."""
        return [agent.sample_batch(self.workers_per_agent)
                for agent in self.agents]

    def finish_round(self, batches: list[list[Architecture]],
                     rewards: list[list[float]]) -> None:
        """Synchronous update: local PPO gradients per agent, all-reduce
        mean across agents, identical apply everywhere."""
        if len(batches) != self.n_agents or len(rewards) != self.n_agents:
            raise ValueError(
                f"expected {self.n_agents} batches/rewards, got "
                f"{len(batches)}/{len(rewards)}")
        for batch, rew in zip(batches, rewards):
            for arch, r in zip(batch, rew):
                self.tell(arch, r)

        old_logps = [np.array([agent.log_prob(a) for a in batch])
                     for agent, batch in zip(self.agents, batches)]
        for _ in range(self.agents[0].config.update_epochs):
            logit_grads = None
            value_grad = 0.0
            for agent, batch, rew, old_logp in zip(self.agents, batches,
                                                   rewards, old_logps):
                grads, vgrad = agent.compute_gradients(batch, list(rew),
                                                       old_logp)
                if logit_grads is None:
                    logit_grads = [g.copy() for g in grads]
                else:
                    for acc, g in zip(logit_grads, grads):
                        acc += g
                value_grad += vgrad
            # All-reduce with the mean operator (paper Sec. III-B2).
            for g in logit_grads:
                g /= self.n_agents
            value_grad /= self.n_agents
            for agent in self.agents:
                agent.apply_gradients(logit_grads, value_grad)
        self.round_index += 1

    # ------------------------------------------------------------------
    # Ask/tell compatibility (serial driving without a cluster)
    # ------------------------------------------------------------------
    def _propose(self) -> Architecture:
        # Round-robin across agents so a serial driver still exercises all
        # policies; the synchronous semantics require the round protocol.
        agent = self.agents[(self.n_asked - 1) % self.n_agents]
        return agent.sample_architecture()

    def _observe(self, arch: Architecture, reward: float) -> None:
        # Recorded via tell(); gradient updates happen in finish_round.
        pass

    def run_serial(self, evaluate, n_rounds: int) -> list[float]:
        """Drive the full synchronous loop in-process (no cluster).

        ``evaluate(arch) -> reward``. Returns every reward in evaluation
        order — convenient for tests and small studies.
        """
        check_positive_int(n_rounds, name="n_rounds")
        all_rewards: list[float] = []
        for _ in range(n_rounds):
            batches = self.propose_round()
            rewards = [[float(evaluate(a)) for a in batch]
                       for batch in batches]
            self.finish_round(batches, rewards)
            for rew in rewards:
                all_rewards.extend(rew)
        return all_rewards

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _state_extra(self) -> dict:
        return {"n_agents": self.n_agents,
                "workers_per_agent": self.workers_per_agent,
                "round_index": self.round_index,
                "config": asdict(self.agents[0].config),
                "agents": [agent.state_dict() for agent in self.agents]}

    def _load_extra(self, state: dict) -> None:
        agents = state["agents"]
        if len(agents) != self.n_agents:
            raise ValueError(
                f"state has {len(agents)} agents, algorithm has "
                f"{self.n_agents}")
        self.round_index = int(state["round_index"])
        for agent, agent_state in zip(self.agents, agents):
            agent.load_state_dict(agent_state)
