import hashlib
import json

import numpy as np
import pytest

from repro.nas.space import (
    HyperparameterGrid,
    JointArchitectureSpace,
    Operation,
    StackedLSTMSpace,
    build_network,
    default_operations,
    describe_architecture,
    hybrid_operations,
)


class TestOperations:
    def test_default_catalog(self):
        ops = default_operations()
        assert len(ops) == 7
        assert ops[0].is_identity
        assert [op.units for op in ops[1:]] == [16, 32, 48, 64, 80, 96]

    def test_str(self):
        assert str(Operation("identity")) == "Identity"
        assert str(Operation("lstm", 32)) == "LSTM(32)"

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            Operation("conv")

    def test_lstm_needs_units(self):
        with pytest.raises(ValueError):
            Operation("lstm")

    def test_identity_takes_no_units(self):
        with pytest.raises(ValueError):
            Operation("identity", 8)


class TestPaperGeometry:
    def test_paper_space_size(self):
        """7 ops ^ 5 layers x 2 ^ 9 skips = 8,605,184 (paper Sec. IV)."""
        space = StackedLSTMSpace()
        assert space.n_layers == 5
        assert space.n_skip_nodes == 9
        assert space.size == 8_605_184

    def test_skip_slots_pattern(self):
        """1 + 2 + 3 + 3 slots for layers 2..5 at depth limit 3."""
        space = StackedLSTMSpace()
        per_target = {}
        for slot in space.skip_slots:
            per_target.setdefault(slot.target, []).append(slot.source)
        assert {k: len(v) for k, v in per_target.items()} == \
            {2: 1, 3: 2, 4: 3, 5: 3}

    def test_fig2_two_layer_variant(self):
        """The paper's 2-node example has a single inter-layer skip node."""
        space = StackedLSTMSpace(n_layers=2)
        assert space.n_skip_nodes == 1

    def test_variable_node_count(self):
        assert StackedLSTMSpace().n_variable_nodes == 14

    def test_cardinalities(self, small_space):
        assert small_space.cardinalities == (4, 4, 4, 2, 2, 2)
        assert small_space.size == 4 ** 3 * 2 ** 3


class TestEncoding:
    def test_validate_roundtrip(self, small_space, rng):
        arch = small_space.random_architecture(rng)
        assert small_space.validate(arch) == arch

    def test_validate_length(self, small_space):
        with pytest.raises(ValueError, match="length"):
            small_space.validate((0, 0))

    def test_validate_range(self, small_space):
        bad = [0] * 6
        bad[0] = 9
        with pytest.raises(ValueError, match="out of range"):
            small_space.validate(tuple(bad))

    def test_index_roundtrip_exhaustive(self, small_space):
        for rank in range(0, small_space.size, 37):
            arch = small_space.from_index(rank)
            assert small_space.index_of(arch) == rank

    def test_index_bijective_sample(self, rng):
        space = StackedLSTMSpace()
        seen = set()
        for _ in range(200):
            arch = space.random_architecture(rng)
            seen.add(space.index_of(arch))
        assert all(0 <= r < space.size for r in seen)

    def test_from_index_out_of_range(self, small_space):
        with pytest.raises(ValueError):
            small_space.from_index(small_space.size)


class TestSamplingAndMutation:
    def test_random_architecture_valid(self, small_space, rng):
        for _ in range(50):
            small_space.validate(small_space.random_architecture(rng))

    def test_random_covers_space(self, small_space, rng):
        ranks = {small_space.index_of(small_space.random_architecture(rng))
                 for _ in range(600)}
        assert len(ranks) > 300  # decent coverage of 1024

    def test_mutation_changes_exactly_one_node(self, small_space, rng):
        for _ in range(100):
            parent = small_space.random_architecture(rng)
            child = small_space.mutate(parent, rng)
            diff = sum(1 for a, b in zip(parent, child) if a != b)
            assert diff == 1

    def test_mutation_valid(self, small_space, rng):
        arch = small_space.random_architecture(rng)
        for _ in range(50):
            arch = small_space.mutate(arch, rng)
            small_space.validate(arch)

    def test_mutation_reaches_whole_space(self, small_space, rng):
        """The mutation graph is connected: repeated mutation explores."""
        arch = (0,) * 6
        seen = set()
        for _ in range(3000):
            arch = small_space.mutate(arch, rng)
            seen.add(small_space.index_of(arch))
        assert len(seen) > small_space.size // 3


class TestWalkAndParameters:
    def test_builder_matches_param_count(self, small_space, rng):
        for _ in range(30):
            arch = small_space.random_architecture(rng)
            net = build_network(small_space, arch, rng=0)
            assert net.n_parameters == small_space.count_parameters(arch)

    def test_all_identity_still_has_output_head(self, small_space):
        arch = (0, 0, 0) + (0,) * 3
        params = small_space.count_parameters(arch)
        # Just the constant output LSTM on the raw input.
        assert params == 4 * ((3 + 3) * 3 + 3)

    def test_network_output_shape(self, small_space, rng):
        arch = small_space.random_architecture(rng)
        net = build_network(small_space, arch, rng=0)
        y = net.forward(rng.standard_normal((2, 6, 3)))
        assert y.shape == (2, 6, 3)

    def test_skips_add_dense_projections(self, small_space):
        no_skips = (1, 2, 3) + (0,) * 3
        all_skips = (1, 2, 3) + (1,) * 3
        assert small_space.count_parameters(all_skips) > \
            small_space.count_parameters(no_skips)

    def test_skip_onto_self_collapsed(self, small_space):
        """An identity layer can collapse a skip source onto the main
        path; adding a tensor to itself is skipped by the walk."""
        # layer1=identity, layer2=lstm, skip input->2 active: the skip
        # source (input) equals the main path (input) -> no projection.
        arch = (0, 1, 0, 1, 0, 0)
        specs = list(small_space.walk(arch))
        assert not any(s["type"] == "dense" for s in specs)

    def test_describe_mentions_ops(self, small_space, rng):
        arch = small_space.random_architecture(rng)
        text = describe_architecture(small_space, arch)
        assert "layer ops" in text


class TestConstructorValidation:
    def test_needs_two_ops(self):
        with pytest.raises(ValueError):
            StackedLSTMSpace(operations=(Operation("identity"),))

    def test_positive_layers(self):
        with pytest.raises(ValueError):
            StackedLSTMSpace(n_layers=0)


def _recorded_spaces():
    """The stacked and joint spaces whose genome streams are pinned."""
    paper = StackedLSTMSpace()
    hybrid = StackedLSTMSpace(n_layers=3, input_dim=3, output_dim=3,
                              operations=hybrid_operations(),
                              max_skip_depth=1)
    return {
        "paper": paper,
        "hybrid": hybrid,
        "joint-paper": JointArchitectureSpace(paper),
        "joint-hybrid": JointArchitectureSpace(
            hybrid, HyperparameterGrid(learning_rates=(1e-3, 1e-2),
                                       windows=(6, 8),
                                       pod_ranks=(3, 5, 7))),
    }


#: Per space: (size, sha256 of its fixed-seed genome streams).
RECORDED_STREAMS = {
    "hybrid": (
        2916,
        "c98d17cd99c0b1f08605303f50905e2cb6c7977fc5e0e184f87c2fb57118b134"),
    "joint-hybrid": (
        34992,
        "67f4642d1da14700b495c7d0594cf7585e28c8bff55942c96455f049c2d9fd74"),
    "joint-paper": (
        1075648000,
        "41dc2d1a98ba55c04163de2272fa2a76a60dd1066652c26648df2d9ff8a4c9c2"),
    "paper": (
        8605184,
        "e5ab39000244f1d473f8c5b038f1cea248aba14965d75e00b2dc6603aa617023"),
}


def _genome_streams(space) -> str:
    """Fixed-seed random draws, a mutation chain and rank round trips."""
    gen = np.random.default_rng(2024)
    draws = [space.random_architecture(gen) for _ in range(40)]
    draws += [space.random_architecture(seed) for seed in range(5)]
    chain = [draws[0]]
    for _ in range(60):
        chain.append(space.mutate(chain[-1], gen))
    chain += [space.mutate(draws[1], seed) for seed in range(5)]
    ranks = [space.index_of(arch) for arch in draws + chain]
    assert [space.from_index(r) for r in ranks] == draws + chain
    fixed = [space.from_index(r) for r in
             (0, 1, space.size // 3, space.size // 2, space.size - 1)]
    assert [space.validate(arch) for arch in fixed] == fixed
    text = json.dumps([space.size, list(space.cardinalities), draws, chain,
                       ranks, fixed])
    return hashlib.sha256(text.encode()).hexdigest()


class TestRecordedStreams:
    """Both spaces draw, mutate and rank exactly as recorded."""

    @pytest.mark.parametrize("name", sorted(_recorded_spaces()))
    def test_genome_streams(self, name):
        space = _recorded_spaces()[name]
        assert (space.size, _genome_streams(space)) \
            == RECORDED_STREAMS[name]
