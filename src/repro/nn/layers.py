"""Trainable layers: the base protocol, Dense and Dropout."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DimensionError
from repro.nn.initializers import get_initializer


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`; trainable
    layers additionally expose aligned ``parameters()`` / ``gradients()``
    lists that optimisers update in place.
    """

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output.

        Only ``training=True`` keeps what :meth:`backward` needs; an
        inference forward pass leaves the layer's state untouched, so a
        scored matrix is never pinned by the network that scored it.
        """
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate ``dLoss/dOutput`` to ``dLoss/dInput``, filling gradients."""
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        """Trainable arrays (updated in place by the optimiser)."""
        return []

    def gradients(self) -> list[np.ndarray]:
        """Gradient arrays aligned with :meth:`parameters`."""
        return []


def saved_for_backward(state: np.ndarray | None) -> np.ndarray:
    """The array a training forward kept for :meth:`Layer.backward`."""
    if state is None:
        raise DimensionError("backward called before a training forward")
    return state


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_init: str = "glorot_uniform",
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ConfigurationError(
                f"layer sizes must be positive, got {in_features}x{out_features}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        initializer = get_initializer(weight_init)
        self.weights = initializer(in_features, out_features, rng)
        self.bias = np.zeros(out_features)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._inputs: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.weights.shape[0]

    @property
    def out_features(self) -> int:
        return self.weights.shape[1]

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise DimensionError(
                f"Dense({self.in_features}->{self.out_features}) got input "
                f"shape {inputs.shape}"
            )
        if training:
            self._inputs = inputs
        return inputs @ self.weights + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.grad_weights[...] = saved_for_backward(self._inputs).T @ grad_output
        self.grad_bias[...] = grad_output.sum(axis=0)
        return grad_output @ self.weights.T

    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class Dropout(Layer):
    """Inverted dropout; active only when ``training=True``."""

    def __init__(self, rate: float, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
