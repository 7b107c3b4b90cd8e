"""Tests for optimisers, schedules and the Sequential network."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionError, NotFittedError
from repro.nn.activations import ReLU
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam
from repro.nn.schedule import TrainingPhase, TrainingSchedule, paper_schedule


class TestOptimizers:
    def _quadratic_descent(self, optimizer, steps=200):
        """Minimise ||x||^2; gradient is 2x."""
        x = np.array([3.0, -2.0])
        for _ in range(steps):
            optimizer.step([x], [2.0 * x])
        return x

    def test_sgd_converges(self):
        x = self._quadratic_descent(SGD(learning_rate=0.1))
        assert np.linalg.norm(x) < 1e-6

    def test_sgd_momentum_converges(self):
        x = self._quadratic_descent(SGD(learning_rate=0.05, momentum=0.9))
        assert np.linalg.norm(x) < 1e-4

    def test_adam_converges(self):
        x = self._quadratic_descent(Adam(learning_rate=0.2), steps=400)
        assert np.linalg.norm(x) < 1e-3

    def test_learning_rate_mutable(self):
        optimizer = SGD(learning_rate=0.1)
        optimizer.learning_rate = 0.01
        x = np.array([1.0])
        optimizer.step([x], [np.array([1.0])])
        assert x[0] == pytest.approx(0.99)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            SGD(momentum=1.0)
        with pytest.raises(ConfigurationError):
            Adam(beta1=1.0)

    def test_adam_step_size_invariant_to_gradient_scale(self):
        # Adam normalises by the gradient's running magnitude, so a
        # constant gradient of any scale produces ~lr-sized steps.
        big, small = np.array([0.0]), np.array([0.0])
        optimizer = Adam(learning_rate=0.1)
        optimizer.step([big, small], [np.array([100.0]), np.array([1e-3])])
        assert big[0] == pytest.approx(-0.1, rel=1e-3)
        assert small[0] == pytest.approx(-0.1, rel=1e-3)


def _first_move(optimizer, fresh):
    """Step twice; where the second step moves a zero array at position 0."""
    first = np.zeros(3)
    optimizer.step([first], [np.array([1.0, -2.0, 0.5])])
    if fresh == "after-del":
        del first
        second = np.zeros(3)  # may reuse the freed array's id
    elif fresh == "while-alive":
        second = np.zeros(3)
    else:
        second = first
        second[...] = 0.0
    optimizer.step([second], [np.array([0.3, 0.3, -4.0])])
    return second


class TestPositionalState:
    """Optimiser state belongs to list positions, not to array identities."""

    @pytest.mark.parametrize(
        "make", [lambda: Adam(learning_rate=0.1), lambda: SGD(0.1, momentum=0.9)],
        ids=["adam", "sgd-momentum"],
    )
    def test_state_does_not_depend_on_array_identity(self, make):
        moves = [_first_move(make(), fresh) for fresh in ("same", "while-alive", "after-del")]
        assert np.array_equal(moves[0], moves[1])
        assert np.array_equal(moves[0], moves[2])

    @pytest.mark.parametrize(
        "make", [lambda: Adam(learning_rate=0.1), lambda: SGD(0.1, momentum=0.9)],
        ids=["adam", "sgd-momentum"],
    )
    @pytest.mark.parametrize(
        "shapes", [[(3,)], [(2, 2), (3,)], [(2,), (4,)]], ids=["one", "reshaped", "two"]
    )
    def test_step_with_other_shapes_raises(self, make, shapes):
        optimizer = make()
        optimizer.step([np.zeros((2, 2)), np.zeros(4)], [np.ones((2, 2)), np.ones(4)])
        arrays = [np.zeros(shape) for shape in shapes]
        with pytest.raises(ConfigurationError, match="positional"):
            optimizer.step(arrays, [np.ones(shape) for shape in shapes])

    def test_state_is_allocated_once(self):
        optimizer = Adam()
        x = np.zeros(5)
        optimizer.step([x], [np.ones(5)])
        state = [buffer for buffers in optimizer._state for buffer in buffers]
        optimizer.step([x], [np.ones(5)])
        after = [buffer for buffers in optimizer._state for buffer in buffers]
        assert all(a is b for a, b in zip(state, after, strict=True))


class TestSchedule:
    def test_paper_schedule(self):
        schedule = paper_schedule()
        assert schedule.total_epochs == 20
        rates = list(schedule.epoch_rates())
        assert rates[:10] == [1e-3] * 10
        assert rates[10:15] == [1e-4] * 5
        assert rates[15:] == [1e-5] * 5

    def test_constant(self):
        schedule = TrainingSchedule.constant(3, 0.01)
        assert list(schedule.epoch_rates()) == [0.01] * 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainingPhase(0, 0.1)
        with pytest.raises(ConfigurationError):
            TrainingPhase(1, 0.0)
        with pytest.raises(ConfigurationError):
            TrainingSchedule(())


def _toy_problem(rng, n=240):
    """Two Gaussian blobs, linearly separable."""
    half = n // 2
    x0 = rng.standard_normal((half, 4)) + 2.0
    x1 = rng.standard_normal((half, 4)) - 2.0
    inputs = np.vstack([x0, x1])
    labels = np.array([0] * half + [1] * half)
    order = rng.permutation(n)
    return inputs[order], labels[order]


def _paper_network(rng):
    return Sequential(
        [
            Dense(4, 16, rng=rng),
            ReLU(),
            Dense(16, 2, rng=rng),
        ]
    )


class TestSequential:
    def test_learns_separable_problem(self, rng):
        inputs, labels = _toy_problem(rng)
        network = _paper_network(rng)
        history = network.fit(
            inputs, labels, TrainingSchedule.constant(10, 1e-2), rng=rng
        )
        assert history.epochs == 10
        assert (network.predict(inputs) == labels).mean() > 0.95

    def test_loss_decreases(self, rng):
        inputs, labels = _toy_problem(rng)
        network = _paper_network(rng)
        history = network.fit(
            inputs, labels, TrainingSchedule.constant(10, 1e-2), rng=rng
        )
        assert history.losses[-1] < history.losses[0]

    def test_predict_proba_rows_sum_to_one(self, rng):
        inputs, labels = _toy_problem(rng)
        network = _paper_network(rng)
        network.fit(inputs, labels, TrainingSchedule.constant(2, 1e-2), rng=rng)
        probs = network.predict_proba(inputs)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_predict_before_fit_raises(self, rng):
        network = _paper_network(rng)
        with pytest.raises(NotFittedError):
            network.predict(np.zeros((1, 4)))

    def test_deterministic_training(self):
        inputs, labels = _toy_problem(np.random.default_rng(5))
        results = []
        for _ in range(2):
            network = _paper_network(np.random.default_rng(0))
            network.fit(
                inputs,
                labels,
                TrainingSchedule.constant(3, 1e-2),
                rng=np.random.default_rng(1),
            )
            results.append(network.predict_proba(inputs))
        assert np.array_equal(results[0], results[1])

    def test_history_records_schedule(self, rng):
        inputs, labels = _toy_problem(rng)
        network = _paper_network(rng)
        schedule = TrainingSchedule.from_pairs([(2, 1e-2), (1, 1e-3)])
        history = network.fit(inputs, labels, schedule, rng=rng)
        assert history.learning_rates == [1e-2, 1e-2, 1e-3]

    def test_input_validation(self, rng):
        network = _paper_network(rng)
        schedule = TrainingSchedule.constant(1, 1e-2)
        with pytest.raises(ConfigurationError):
            network.fit(np.zeros((0, 4)), np.zeros(0), schedule)
        with pytest.raises(ConfigurationError):
            network.fit(np.zeros((2, 4)), np.zeros(3), schedule)
        with pytest.raises(ConfigurationError):
            network.fit(np.zeros((2, 4)), np.zeros(2), schedule, batch_size=0)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_bad_label_fails_before_any_update(self, rng, bad):
        inputs, labels = _toy_problem(rng, n=100)
        labels[-1] = bad
        network = _paper_network(rng)
        before = [p.copy() for p in network.parameters()]
        with pytest.raises(DimensionError, match="out of range"):
            network.fit(inputs, labels, TrainingSchedule.constant(2, 1e-2), rng=rng)
        for param, saved in zip(network.parameters(), before, strict=True):
            assert param.tobytes() == saved.tobytes()

    def test_labels_must_be_one_per_row(self, rng):
        inputs, labels = _toy_problem(rng, n=40)
        network = _paper_network(rng)
        with pytest.raises(DimensionError, match="incompatible"):
            network.fit(inputs, labels[:, None], TrainingSchedule.constant(1, 1e-2))

    def test_num_parameters(self, rng):
        network = _paper_network(rng)
        # (4*16 + 16) + (16*2 + 2)
        assert network.num_parameters() == 80 + 34

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

