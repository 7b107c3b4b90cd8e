"""Gradient-descent optimisers updating parameter arrays in place.

Optimiser state is positional: the buffers of the ``i``-th array passed
to :meth:`Optimizer.step` belong to whatever array sits at position
``i``, and they are allocated once, on the first step.  Later steps must
pass arrays of the same shapes.  :meth:`Sequential.fit` passes one flat
parameter vector, so a training step is a fixed handful of ``out=``
ufunc calls over it.  Each elementwise operation keeps the order of the
textbook per-array formula, so the update is bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class Optimizer:
    """Base optimiser; subclasses implement :meth:`step`.

    The learning rate is a mutable attribute so the phase schedule can
    change it between epochs without rebuilding optimiser state.
    """

    #: Buffers kept per parameter array (moments and scratch space).
    slots = 0

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self._state: list[tuple[np.ndarray, ...]] | None = None

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        """Apply one update to every parameter array, in place."""
        raise NotImplementedError

    def _buffers(self, parameters: list[np.ndarray]) -> list[tuple[np.ndarray, ...]]:
        """Per-position state, allocated as zeros on the first step.

        Raises :class:`ConfigurationError` if the arrays' shapes differ
        from the first step's.
        """
        if self._state is None:
            self._state = [
                tuple(np.zeros_like(param) for _ in range(self.slots))
                for param in parameters
            ]
            return self._state
        shapes = [param.shape for param in parameters]
        expected = [buffers[0].shape for buffers in self._state]
        if shapes != expected:
            raise ConfigurationError(
                f"{type(self).__name__} state is positional: this step's parameter "
                f"shapes {shapes} differ from the first step's {expected}"
            )
        return self._state


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    slots = 2  # velocity, scratch

    def __init__(self, learning_rate: float = 1e-3, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        state = self._buffers(parameters)
        for param, grad, (velocity, scaled) in zip(parameters, gradients, state, strict=True):
            np.multiply(grad, self.learning_rate, out=scaled)
            if self.momentum > 0.0:
                np.multiply(velocity, self.momentum, out=velocity)
                np.subtract(velocity, scaled, out=velocity)
                np.add(param, velocity, out=param)
            else:
                np.subtract(param, scaled, out=param)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) -- the Keras default LEAPME trains with."""

    slots = 4  # m, v and two scratch arrays

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._t = 0

    def step(self, parameters: list[np.ndarray], gradients: list[np.ndarray]) -> None:
        state = self._buffers(parameters)
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad, (m, v, update, denom) in zip(
            parameters, gradients, state, strict=True
        ):
            # m = beta1 * m + (1 - beta1) * grad
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1.0 - self.beta1, out=update)
            np.add(m, update, out=m)
            # v = beta2 * v + ((1 - beta2) * grad) * grad
            np.multiply(v, self.beta2, out=v)
            np.multiply(grad, 1.0 - self.beta2, out=update)
            np.multiply(update, grad, out=update)
            np.add(v, update, out=v)
            # param -= (lr * (m / bias1)) / (sqrt(v / bias2) + epsilon)
            np.divide(m, bias1, out=update)
            np.multiply(update, self.learning_rate, out=update)
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, self.epsilon, out=denom)
            np.divide(update, denom, out=update)
            np.subtract(param, update, out=param)
