"""Bit-equivalence oracle for :meth:`Sequential.fit`.

The reference trainer below is the plain per-batch loop written out
longhand: fancy-indexed batches, ``x @ W + b`` forwards, a full backward
through every layer (the first layer's input gradient included), and
the textbook per-array Adam / SGD formulas with their state keyed by
position.  It trains a deep copy of the same network from the same
generators, and :meth:`Sequential.fit` must agree with it bit for bit:
trained parameters, loss history and inference probabilities, compared
with ``np.array_equal`` in-process (no golden digests, so differing BLAS
builds cannot make the comparison flaky).
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.nn import SGD, Adam, Dense, Dropout, ReLU, Sequential, TrainingSchedule
from repro.nn.activations import Tanh
from repro.nn.schedule import paper_schedule


class _ReferenceAdam:
    def __init__(self, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = 1e-3
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}
        self.t = 0

    def step(self, parameters, gradients):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for index, (param, grad) in enumerate(zip(parameters, gradients, strict=True)):
            m = self.m.setdefault(index, np.zeros_like(param))
            v = self.v.setdefault(index, np.zeros_like(param))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class _ReferenceSGD:
    def __init__(self, momentum=0.0):
        self.learning_rate = 1e-3
        self.momentum = momentum
        self.velocity: dict[int, np.ndarray] = {}

    def step(self, parameters, gradients):
        for index, (param, grad) in enumerate(zip(parameters, gradients, strict=True)):
            if self.momentum > 0.0:
                velocity = self.velocity.setdefault(index, np.zeros_like(param))
                velocity *= self.momentum
                velocity -= self.learning_rate * grad
                param += velocity
            else:
                param -= self.learning_rate * grad


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _reference_forward(network, inputs, training):
    """Forward through every layer; returns logits and the backward tape."""
    tape = []
    outputs = inputs
    for layer in network.layers:
        if isinstance(layer, Dense):
            tape.append(outputs)
            outputs = outputs @ layer.weights + layer.bias
        elif isinstance(layer, ReLU):
            mask = outputs > 0
            tape.append(mask)
            outputs = np.where(mask, outputs, 0.0)
        elif isinstance(layer, Tanh):
            outputs = np.tanh(outputs)
            tape.append(outputs)
        elif isinstance(layer, Dropout):
            mask = None
            if training and layer.rate != 0.0:
                keep = 1.0 - layer.rate
                mask = (layer._rng.random(outputs.shape) < keep) / keep
                outputs = outputs * mask
            tape.append(mask)
        else:
            raise TypeError(f"oracle has no reference for {type(layer).__name__}")
    return outputs, tape


def _reference_backward(network, grad, tape):
    gradients = {}
    for layer, saved in zip(reversed(network.layers), reversed(tape), strict=True):
        if isinstance(layer, Dense):
            gradients[id(layer)] = [saved.T @ grad, grad.sum(axis=0)]
            grad = grad @ layer.weights.T
        elif isinstance(layer, ReLU):
            grad = grad * saved
        elif isinstance(layer, Tanh):
            grad = grad * (1.0 - saved**2)
        elif saved is not None:
            grad = grad * saved
    return [g for layer in network.layers for g in gradients.get(id(layer), [])]


def reference_fit(network, inputs, labels, schedule, batch_size, optimizer, rng, shuffle):
    """The per-batch training loop, step for step."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    parameters = [p for layer in network.layers for p in layer.parameters()]
    losses = []
    n = len(inputs)
    for learning_rate in schedule.epoch_rates():
        optimizer.learning_rate = learning_rate
        order = rng.permutation(n) if shuffle else np.arange(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            logits, tape = _reference_forward(network, inputs[batch], training=True)
            batch_labels = labels[batch]
            probs = _softmax(logits)
            picked = probs[np.arange(len(batch_labels)), batch_labels]
            loss = float(-np.log(np.clip(picked, 1e-12, None)).mean())
            grad = probs.copy()
            grad[np.arange(len(batch_labels)), batch_labels] -= 1.0
            grad = grad / len(batch_labels)
            optimizer.step(parameters, _reference_backward(network, grad, tape))
            epoch_loss += loss
            batches += 1
        losses.append(float(epoch_loss / batches))
    return losses


def _reference_proba(network, inputs):
    return _softmax(_reference_forward(network, np.asarray(inputs, np.float64), False)[0])


def _paper_network(features, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dense(features, 128, rng=rng),
            ReLU(),
            Dense(128, 64, rng=rng),
            ReLU(),
            Dense(64, 2, rng=rng),
        ]
    )


def _light_network(features, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(features, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])


def _dropout_network(features, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dense(features, 16, rng=rng),
            Tanh(),
            Dropout(0.3, rng=np.random.default_rng(seed + 7)),
            Dense(16, 2, rng=rng),
        ]
    )


def _leading_dropout_network(features, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dropout(0.2, rng=np.random.default_rng(seed + 3)),
            Dense(features, 8, rng=rng),
            ReLU(),
            Dense(8, 2, rng=rng),
        ]
    )


def _problem(n, features, seed=0):
    rng = np.random.default_rng(seed + 100)
    inputs = rng.standard_normal((n, features))
    labels = (inputs[:, 0] + 0.5 * inputs[:, -1] > 0).astype(np.int64)
    return inputs, labels


def _train_both(network, inputs, labels, schedule, batch_size=32, optimizer="adam",
                momentum=0.0, shuffle=True, seed=1):
    """Train ``network`` with ``fit`` and a deep copy with the oracle."""
    reference = copy.deepcopy(network)
    if optimizer == "adam":
        fused_opt, ref_opt = Adam(), _ReferenceAdam()
    else:
        fused_opt, ref_opt = SGD(momentum=momentum), _ReferenceSGD(momentum)
    history = network.fit(
        inputs, labels, schedule, batch_size=batch_size, optimizer=fused_opt,
        rng=np.random.default_rng(seed), shuffle=shuffle,
    )
    losses = reference_fit(
        reference, inputs, labels, schedule, batch_size, ref_opt,
        np.random.default_rng(seed), shuffle,
    )
    return history.losses, losses, reference


def _assert_identical(network, reference, inputs):
    for fused, expected in zip(network.parameters(), reference.parameters(), strict=True):
        assert fused.shape == expected.shape
        assert np.array_equal(fused, expected)
    assert np.array_equal(network.predict_proba(inputs), _reference_proba(reference, inputs))


SHORT = TrainingSchedule.from_pairs([(2, 1e-2), (1, 1e-3)])

CASES = {
    "n-below-batch": (_paper_network, 20, 7, 32),
    "n-equals-batch": (_paper_network, 32, 7, 32),
    "n-not-divisible": (_paper_network, 100, 9, 32),
    "batch-size-1": (_light_network, 17, 5, 1),
    "light-wide": (_light_network, 150, 165, 32),
    "dropout": (_dropout_network, 70, 6, 16),
    "leading-dropout": (_leading_dropout_network, 45, 4, 8),
}


class TestFitMatchesReferenceLoop:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_adam(self, case):
        build, n, features, batch_size = CASES[case]
        inputs, labels = _problem(n, features)
        network = build(features)
        losses, expected, reference = _train_both(
            network, inputs, labels, SHORT, batch_size=batch_size
        )
        assert losses == expected
        _assert_identical(network, reference, inputs)

    def test_paper_network_under_the_paper_schedule(self):
        inputs, labels = _problem(90, 12)
        network = _paper_network(12)
        losses, expected, reference = _train_both(network, inputs, labels, paper_schedule())
        assert len(losses) == 20
        assert losses == expected
        _assert_identical(network, reference, inputs)

    def test_without_shuffling(self):
        inputs, labels = _problem(75, 6)
        network = _paper_network(6)
        losses, expected, reference = _train_both(
            network, inputs, labels, SHORT, shuffle=False
        )
        assert losses == expected
        _assert_identical(network, reference, inputs)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd(self, momentum):
        inputs, labels = _problem(80, 5)
        network = _paper_network(5)
        losses, expected, reference = _train_both(
            network, inputs, labels, SHORT, optimizer="sgd", momentum=momentum
        )
        assert losses == expected
        _assert_identical(network, reference, inputs)

    def test_two_consecutive_fits(self):
        inputs, labels = _problem(60, 6)
        network = _paper_network(6)
        reference = copy.deepcopy(network)
        fused_opt, ref_opt = Adam(), _ReferenceAdam()
        for seed in (1, 2):
            history = network.fit(
                inputs, labels, SHORT, optimizer=fused_opt, rng=np.random.default_rng(seed)
            )
            expected = reference_fit(
                reference, inputs, labels, SHORT, 32, ref_opt, np.random.default_rng(seed), True
            )
            assert history.losses == expected
            _assert_identical(network, reference, inputs)

    def test_non_contiguous_inputs(self):
        inputs, labels = _problem(50, 7)
        network = _paper_network(7)
        losses, expected, reference = _train_both(
            network, np.asfortranarray(inputs), labels, SHORT
        )
        assert losses == expected
        _assert_identical(network, reference, inputs)


def _refit(network, inputs, labels):
    history = network.fit(inputs, labels, SHORT, rng=np.random.default_rng(4))
    return history.losses, [p.copy() for p in network.parameters()]


class TestTrainingStateDoesNotLeak:
    """A network trained once must re-train identically however it was copied."""

    @pytest.fixture()
    def trained(self):
        inputs, labels = _problem(64, 6)
        network = _paper_network(6)
        network.fit(inputs, labels, SHORT, rng=np.random.default_rng(1))
        return network, inputs, labels

    def _assert_same_refit(self, original, clone, inputs, labels):
        expected_losses, expected_params = _refit(original, inputs, labels)
        losses, params = _refit(clone, inputs, labels)
        assert losses == expected_losses
        for got, want in zip(params, expected_params, strict=True):
            assert np.array_equal(got, want)

    def test_refit_after_pickle(self, trained):
        network, inputs, labels = trained
        clone = pickle.loads(pickle.dumps(network))
        self._assert_same_refit(network, clone, inputs, labels)

    def test_refit_after_deepcopy(self, trained):
        network, inputs, labels = trained
        clone = copy.deepcopy(network)
        self._assert_same_refit(network, clone, inputs, labels)

    def test_copies_do_not_share_parameters(self, trained):
        network, inputs, labels = trained
        clone = copy.deepcopy(network)
        before = [p.copy() for p in network.parameters()]
        clone.fit(inputs, labels, SHORT, rng=np.random.default_rng(9))
        for param, saved in zip(network.parameters(), before, strict=True):
            assert np.array_equal(param, saved)
