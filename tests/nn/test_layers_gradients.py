"""Layer tests including finite-difference gradient verification."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionError
from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.layers import Dense, Dropout
from repro.nn.losses import SoftmaxCrossEntropy


def finite_difference_check(layer, inputs, epsilon=1e-6):
    """Compare analytic parameter gradients with central differences.

    The scalar objective is ``sum(layer.forward(x))``; its gradient w.r.t.
    the output is all-ones, which backward() turns into input and
    parameter gradients.
    """
    outputs = layer.forward(inputs, training=True)
    grad_inputs = layer.backward(np.ones_like(outputs))
    # Parameter gradients.
    for param, grad in zip(layer.parameters(), layer.gradients()):
        flat = param.ravel()
        for index in np.random.default_rng(0).choice(
            flat.size, size=min(10, flat.size), replace=False
        ):
            original = flat[index]
            flat[index] = original + epsilon
            up = layer.forward(inputs, training=False).sum()
            flat[index] = original - epsilon
            down = layer.forward(inputs, training=False).sum()
            flat[index] = original
            numeric = (up - down) / (2 * epsilon)
            assert grad.ravel()[index] == pytest.approx(numeric, abs=1e-4)
    # Input gradients.
    flat_inputs = inputs.ravel()
    for index in np.random.default_rng(1).choice(
        flat_inputs.size, size=min(10, flat_inputs.size), replace=False
    ):
        original = flat_inputs[index]
        flat_inputs[index] = original + epsilon
        up = layer.forward(inputs, training=False).sum()
        flat_inputs[index] = original - epsilon
        down = layer.forward(inputs, training=False).sum()
        flat_inputs[index] = original
        numeric = (up - down) / (2 * epsilon)
        assert grad_inputs.ravel()[index] == pytest.approx(numeric, abs=1e-4)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng=rng)
        out = layer.forward(rng.standard_normal((5, 4)))
        assert out.shape == (5, 3)

    def test_forward_values(self):
        layer = Dense(2, 2)
        layer.weights[...] = np.eye(2)
        layer.bias[...] = [1.0, -1.0]
        out = layer.forward(np.array([[2.0, 3.0]]))
        assert np.allclose(out, [[3.0, 2.0]])

    def test_gradients_match_finite_differences(self, rng):
        layer = Dense(4, 3, rng=rng)
        finite_difference_check(layer, rng.standard_normal((6, 4)))

    def test_wrong_input_width(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(DimensionError):
            layer.forward(rng.standard_normal((5, 7)))

    def test_backward_before_forward(self):
        with pytest.raises(DimensionError):
            Dense(2, 2).backward(np.ones((1, 2)))

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            Dense(0, 3)

    def test_parameters_and_gradients_aligned(self, rng):
        layer = Dense(3, 2, rng=rng)
        assert [p.shape for p in layer.parameters()] == [
            g.shape for g in layer.gradients()
        ]


@pytest.mark.parametrize("activation_cls", [ReLU, Sigmoid, Tanh])
class TestActivations:
    def test_gradient_matches_finite_differences(self, activation_cls, rng):
        layer = activation_cls()
        # Avoid the ReLU kink at exactly zero.
        inputs = rng.standard_normal((4, 5)) + 0.1
        inputs[np.abs(inputs) < 1e-3] = 0.5
        finite_difference_check(layer, inputs)

    def test_shape_preserved(self, activation_cls, rng):
        layer = activation_cls()
        inputs = rng.standard_normal((3, 7))
        assert layer.forward(inputs).shape == inputs.shape


class TestActivationValues:
    def test_relu_clips(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.allclose(out, [[0.0, 0.0, 2.0]])

    def test_sigmoid_range_and_stability(self):
        out = Sigmoid().forward(np.array([[-1000.0, 0.0, 1000.0]]))
        assert np.allclose(out, [[0.0, 0.5, 1.0]], atol=1e-9)

    def test_tanh_odd(self):
        layer = Tanh()
        assert np.allclose(
            layer.forward(np.array([[1.0]])), -layer.forward(np.array([[-1.0]]))
        )


@pytest.mark.parametrize(
    "make_layer",
    [lambda: Dense(4, 4), ReLU, Sigmoid, Tanh],
    ids=["Dense", "ReLU", "Sigmoid", "Tanh"],
)
class TestInferenceKeepsNoState:
    def test_backward_after_inference_forward_raises(self, make_layer, rng):
        layer = make_layer()
        out = layer.forward(rng.standard_normal((3, 4)), training=False)
        with pytest.raises(DimensionError):
            layer.backward(np.ones_like(out))

    def test_inference_forward_keeps_the_training_state(self, make_layer, rng):
        layer = make_layer()
        out = layer.forward(rng.standard_normal((3, 4)), training=True)
        before = [layer.backward(np.ones_like(out))]
        before += [grad.copy() for grad in layer.gradients()]
        layer.forward(rng.standard_normal((50, 4)), training=False)
        after = [layer.backward(np.ones_like(out)), *layer.gradients()]
        for expected, actual in zip(before, after, strict=True):
            np.testing.assert_array_equal(actual, expected)


class TestDropout:
    def test_inactive_at_inference(self, rng):
        layer = Dropout(0.5, rng=rng)
        inputs = rng.standard_normal((4, 4))
        assert np.allclose(layer.forward(inputs, training=False), inputs)

    def test_scales_at_training(self, rng):
        layer = Dropout(0.5, rng=rng)
        inputs = np.ones((1000, 1))
        out = layer.forward(inputs, training=True)
        # Inverted dropout keeps the expectation roughly 1.
        assert out.mean() == pytest.approx(1.0, abs=0.1)
        assert set(np.unique(out)) <= {0.0, 2.0}

    def test_backward_uses_same_mask(self, rng):
        layer = Dropout(0.5, rng=rng)
        inputs = np.ones((10, 10))
        out = layer.forward(inputs, training=True)
        grad = layer.backward(np.ones_like(out))
        assert np.allclose(grad, out)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-6

    def test_uniform_prediction_log2(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        assert value == pytest.approx(np.log(2))

    def test_gradient_matches_finite_differences(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((5, 3))
        labels = np.array([0, 1, 2, 1, 0])
        loss.forward(logits, labels)
        analytic = loss.backward()
        epsilon = 1e-6
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                perturbed = logits.copy()
                perturbed[i, j] += epsilon
                up = loss.forward(perturbed, labels)
                perturbed[i, j] -= 2 * epsilon
                down = loss.forward(perturbed, labels)
                numeric = (up - down) / (2 * epsilon)
                assert analytic[i, j] == pytest.approx(numeric, abs=1e-5)

    def test_label_validation(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(DimensionError):
            loss.forward(np.zeros((2, 2)), np.array([0, 5]))
        with pytest.raises(DimensionError):
            loss.forward(np.zeros((2, 2)), np.array([0]))
        with pytest.raises(DimensionError):
            loss.forward(np.zeros(4), np.array([0]))

    def test_backward_before_forward(self):
        with pytest.raises(DimensionError):
            SoftmaxCrossEntropy().backward()
