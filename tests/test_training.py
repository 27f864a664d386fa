import numpy as np
import pytest

from cloudsched import scheduler
from cloudsched.energy import DEFAULT_POWER_MODEL
from cloudsched.errors import DivergenceError, DomainError, SimulatorError
from cloudsched.gnn import training
from cloudsched.gnn.graph import FEATURE_DIM, StateGraph, partition_graph
from cloudsched.gnn.models import (
    ScoringWorkspace,
    model_to_json,
    new_gated_model,
    new_gcn_model,
    score_placements,
)
from cloudsched.gnn.training import TrainConfig, TrainSample, loss_trace_to_csv, train
from cloudsched.sim import SimConfig

from helpers import gradient_check
from slow_reference import train_uncached


def random_sample(seed, n=5, label=0.1):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.6).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    graph = StateGraph(features=rng.standard_normal((n, 5)), adjacency=a)
    return TrainSample(graph=graph, pm_node=0, label=label)


class TestGradientCheck:
    def test_small_gcn(self):
        model = new_gcn_model(seed=3, dims=(5, 8, 4))
        assert gradient_check(model, random_sample(1)) < 1e-4

    def test_gated_k2_backprop_through_time(self):
        model = new_gated_model(seed=3, hidden=8, steps=2)
        assert gradient_check(model, random_sample(2)) < 1e-4

    def test_zero_model_zero_features_exact(self):
        sample = random_sample(5, label=0.3)
        sample.graph.features[...] = 0.0
        model = new_gcn_model(seed=0, dims=(5, 8, 4))
        for _, arr in model.parameters():
            arr[...] = 0.0
        assert gradient_check(model, sample) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_both_kinds(self, seed):
        sample = random_sample(100 + seed)
        assert gradient_check(new_gcn_model(seed=seed, dims=(5, 8, 4)), sample) < 1e-4
        assert gradient_check(new_gated_model(seed=seed, hidden=6, steps=2), sample) < 1e-4


class TestTrain:
    def dataset(self, labels):
        return [random_sample(10 + i, label=v) for i, v in enumerate(labels)]

    def test_learns_a_constant(self):
        data = self.dataset([0.42] * 6)
        model, losses = train(
            new_gcn_model(seed=1), data, config=TrainConfig(epochs=200, learning_rate=0.01)
        )
        assert losses[-1] < 1e-3

    def test_gated_learns_a_constant(self):
        data = self.dataset([0.42] * 6)
        model, losses = train(
            new_gated_model(seed=1, hidden=8),
            data,
            config=TrainConfig(epochs=200, learning_rate=0.01),
        )
        assert losses[-1] < 1e-3

    def test_zero_learning_rate_is_noop(self):
        data = self.dataset([0.1, 0.2])
        init = new_gcn_model(seed=2)
        trained, _ = train(init, data, config=TrainConfig(epochs=5, learning_rate=0.0))
        assert model_to_json(trained) == model_to_json(init)

    def test_inputs_not_mutated(self):
        data = self.dataset([0.1, 0.2])
        init = new_gcn_model(seed=2)
        before = model_to_json(init)
        train(init, data, config=TrainConfig(epochs=3, learning_rate=0.05))
        assert model_to_json(init) == before

    def test_same_seed_identical_trace_and_params(self):
        data = self.dataset([0.1, 0.5, 0.3])
        cfg = TrainConfig(epochs=20, learning_rate=0.02, seed=9)
        m1, l1 = train(new_gcn_model(seed=4), data, config=cfg)
        m2, l2 = train(new_gcn_model(seed=4), data, config=cfg)
        assert l1 == l2
        assert model_to_json(m1) == model_to_json(m2)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            train(new_gcn_model(seed=1), [])

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("epochs", 0, "epochs must be a positive integer, got 0"),
            ("batch_clusters", 0, "batch_clusters must be a positive integer, got 0"),
            ("clusters", -2, "clusters must be a positive integer, got -2"),
            ("epochs", 2.0, "epochs must be a positive integer, got 2.0"),
            ("batch_clusters", True, "batch_clusters must be a positive integer, got True"),
            ("learning_rate", float("nan"), "learning_rate must be a finite number, got nan"),
            ("learning_rate", float("-inf"), "learning_rate must be a finite number, got -inf"),
            ("episodes", 0, "episodes must be a positive integer, got 0"),
            ("episodes", 2.5, "episodes must be a positive integer, got 2.5"),
            ("seed", -1, "seed must be a non-negative integer, got -1"),
            ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
            ("seed", True, "seed must be a non-negative integer, got True"),
        ],
    )
    def test_config_out_of_range_is_one_error_before_training(self, name, value, message):
        # The CLI's messages: it leaves these checks to TrainConfig.
        with pytest.raises(SimulatorError) as err:
            train(new_gcn_model(seed=1), self.dataset([0.1]), config=TrainConfig(**{name: value}))
        assert str(err.value) == message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
    def test_divergence_names_epoch(self):
        data = self.dataset([0.5])
        with pytest.raises(DivergenceError) as err:
            train(new_gcn_model(seed=1), data, config=TrainConfig(epochs=50, learning_rate=1e6))
        assert err.value.epoch >= 0

    def test_explicit_partitions_respected(self):
        data = self.dataset([0.2, 0.4])
        parts = [partition_graph(s.graph, k=2) for s in data]
        _, losses = train(
            new_gcn_model(seed=3),
            data,
            partitions=parts,
            config=TrainConfig(epochs=5, batch_clusters=2),
        )
        assert len(losses) == 5

    def test_default_partitions_take_config_clusters(self):
        data = [random_sample(40 + i, n=7, label=0.1 * i) for i in range(3)]
        config = TrainConfig(epochs=4, batch_clusters=2, seed=5, clusters=3)
        parts = [partition_graph(s.graph, k=3) for s in data]
        implicit = train(new_gcn_model(seed=2), data, config=config)
        explicit = train(new_gcn_model(seed=2), data, partitions=parts, config=config)
        assert implicit[1] == explicit[1]
        assert model_to_json(implicit[0]) == model_to_json(explicit[0])

    def assert_matches_uncached_loop(self, model, sizes=(7, 7, 7, 7), batch_clusters=2):
        # batch_clusters=2 on k=3 draws an extra cluster per step, so the
        # cache keys vary and the RNG stream must stay in the uncached order.
        # The reference has its own unstacked kernels and per-array update.
        data = [random_sample(40 + i, n=n, label=0.1 * i) for i, n in enumerate(sizes)]
        parts = [partition_graph(s.graph, k=3) for s in data]
        config = TrainConfig(epochs=6, batch_clusters=batch_clusters, seed=5)
        fast, fast_losses = train(model, data, partitions=parts, config=config)
        slow, slow_losses = train_uncached(model, data, partitions=parts, config=config)
        assert fast_losses == slow_losses
        assert model_to_json(fast) == model_to_json(slow)

    def test_cached_graphs_match_uncached_loop(self):
        for model in (new_gcn_model(seed=2), new_gated_model(seed=2)):
            self.assert_matches_uncached_loop(model)

    @pytest.mark.parametrize(
        "model",
        [
            new_gcn_model(seed=2, dims=(5, 8, 6, 4)),
            new_gated_model(seed=2, steps=1),
            new_gated_model(seed=2, steps=3),
            new_gated_model(seed=2, hidden=8),
        ],
        ids=["gcn-3-layer", "gated-1-step", "gated-3-step", "gated-hidden-8"],
    )
    def test_other_shapes_match_uncached_loop(self, model):
        # Layouts of the flat parameter vector and stacked gates beyond the defaults.
        self.assert_matches_uncached_loop(model)

    @pytest.mark.parametrize("make_model", [new_gcn_model, new_gated_model], ids=["gcn", "gated"])
    def test_mixed_node_counts_match_uncached_loop(self, make_model):
        # Steps alternate between the buffer sets of several node counts
        # (the GCN's restricted graphs add more counts than the samples have).
        self.assert_matches_uncached_loop(make_model(seed=2), sizes=(5, 7, 9, 7, 5, 9))

    def test_gcn_without_cluster_draws_matches_uncached_loop(self, monkeypatch):
        # batch_clusters=1 never wants an extra cluster, so `train` takes every
        # step's clusters from its table and never calls `_choose_clusters`.
        def no_draw(*args):
            raise AssertionError("a cluster was drawn")

        monkeypatch.setattr(training, "_choose_clusters", no_draw)
        self.assert_matches_uncached_loop(
            new_gcn_model(seed=2), sizes=(5, 7, 9, 7), batch_clusters=1
        )

    @pytest.mark.parametrize("make_model", [new_gcn_model, new_gated_model], ids=["gcn", "gated"])
    def test_trained_model_shares_no_memory_with_a_buffer(self, make_model, monkeypatch):
        made = []
        real = training.step_buffers
        monkeypatch.setattr(training, "step_buffers", lambda *args: made.append(real(*args)) or made[-1])
        data = [random_sample(40 + i, n=n, label=0.1) for i, n in enumerate((5, 7))]
        trained, _ = train(make_model(seed=2), data, config=TrainConfig(epochs=2))
        assert made

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from arrays(item)

        for buffers in made:
            for name, value in vars(buffers).items():
                for arr in arrays(value):
                    # The parameter views a set reads are views of the returned
                    # model; every array it writes lies outside it.
                    if arr.base is not trained.flat:
                        assert not np.shares_memory(arr, trained.flat), name

    @pytest.mark.parametrize("make_model", [new_gcn_model, new_gated_model], ids=["gcn", "gated"])
    def test_trained_copy_shares_no_memory(self, make_model):
        init = make_model(seed=2)
        trained, _ = train(init, self.dataset([0.1]), config=TrainConfig(epochs=1))
        assert not np.shares_memory(trained.flat, init.flat)
        for (name, a), (_, b) in zip(trained.parameters(), init.parameters()):
            assert np.shares_memory(a, trained.flat), name
            assert not np.shares_memory(a, b), name

    def test_label_validation(self):
        with pytest.raises(DomainError):
            random_sample(1, label=-0.1)

    def test_pm_node_must_be_a_pm(self):
        graph = random_sample(1, n=5).graph
        assert TrainSample(graph=graph, pm_node=3, label=0.1).vm_node == 4
        for pm_node in (-1, 4, 5):  # before the first node, the request, past the end
            with pytest.raises(DomainError, match="PM node"):
                TrainSample(graph=graph, pm_node=pm_node, label=0.1)


@pytest.mark.parametrize("make_model", [new_gated_model], ids=["gated"])
def test_a_later_score_leaves_an_earlier_one_unchanged(make_model):
    # Both scores are written in one workspace; each comes back as its own array.
    model = make_model(seed=4)
    workspace = ScoringWorkspace(model, 8)
    rng = np.random.default_rng(8)
    first_feats, second_feats = rng.standard_normal((2, 9, FEATURE_DIM))
    first = score_placements(model, first_feats, np.array([0, 2, 5]), workspace)
    kept = first.copy()
    second = score_placements(model, second_feats, np.array([1, 3, 4, 7]), workspace)
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)


def test_loss_trace_csv_format():
    text = loss_trace_to_csv([0.5, 0.25])
    lines = text.splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert lines[1].startswith("0,")
    assert lines[2].startswith("1,")


def test_teacher_labels_are_the_one_hour_increment_at_the_pick(monkeypatch):
    """Each label is `(peak - idle)·c/cores·k + idle·k·[PM off]`, k = (1 + cooling + extra)/1000.

    So the label knows only whether the chosen PM was on: every powered-on
    candidate has the same one-hour increment, the teacher's pick among them
    included.
    """
    seen = []  # each recorded sample's working snapshot and request
    build = scheduler.build_state_graph

    def spy(working, request, prices):
        seen.append((working.copy(), request))
        return build(working, request, prices)

    monkeypatch.setattr(scheduler, "build_state_graph", spy)
    samples = scheduler.collect_training_data(SimConfig(), episodes=3, seed=100)
    power = DEFAULT_POWER_MODEL
    k = (1 + power.cooling_coefficient + power.extra_coefficient) / 1000
    assert len(samples) == len(seen) == 180
    for sample, (snap, request) in zip(samples, seen):
        pm = sample.pm_node
        closed = (power.peak_power - power.idle_power) * request.cores / snap.cores[pm] * k
        closed += power.idle_power * k * (not snap.powered_on[pm])
        assert abs(sample.label - closed) <= 1e-12
        on = (snap.fits(request) & snap.powered_on).nonzero()[0]
        increments = scheduler.incremental_energy(snap, on, request, power)
        assert np.abs(increments - sample.label).max(initial=0.0) <= 1e-12
    assert len({round(s.label, 12) for s in samples}) == 8
