"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer, saved_for_backward


class ReLU(Layer):
    """Rectified linear unit, the hidden activation used by LEAPME."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        mask = inputs > 0
        if training:
            self._mask = mask
        return np.where(mask, inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * saved_for_backward(self._mask)


class Sigmoid(Layer):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        self._outputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        # Numerically stable piecewise formulation.
        out = np.empty_like(inputs, dtype=np.float64)
        positive = inputs >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-inputs[positive]))
        exp_x = np.exp(inputs[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        if training:
            self._outputs = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        out = saved_for_backward(self._outputs)
        return grad_output * out * (1.0 - out)


class Tanh(Layer):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        self._outputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        outputs = np.tanh(inputs)
        if training:
            self._outputs = outputs
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - saved_for_backward(self._outputs) ** 2)
