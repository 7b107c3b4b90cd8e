"""Feature scaling."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NotFittedError


class StandardScaler:
    """Z-score scaler; constant features are centred and left unscaled."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, inputs: np.ndarray) -> "StandardScaler":
        """Learn per-column mean and standard deviation."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2:
            raise ConfigurationError(f"inputs must be 2-D, got shape {inputs.shape}")
        if len(inputs) == 0:
            raise ConfigurationError("cannot fit a scaler on an empty matrix")
        self.mean_ = inputs.mean(axis=0)
        scale = inputs.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(
        self, inputs: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply the learned scaling, into ``out`` when given.

        ``out`` is a float64 array of the inputs' shape; passing one
        lets a caller scale block after block through a single scratch
        buffer.
        """
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler is not fitted")
        # Subtract into a float64 array, then divide in place: one
        # output allocation at most.  Float32 inputs upcast exactly
        # inside the ufunc, so they need no converted copy first.
        scaled = np.subtract(np.asarray(inputs), self.mean_, out=out, dtype=np.float64)
        scaled /= self.scale_
        return scaled

    def fit_transform(self, inputs: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(inputs).transform(inputs)

    def inverse_transform(self, inputs: np.ndarray) -> np.ndarray:
        """Undo :meth:`transform`."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler is not fitted")
        return np.asarray(inputs, dtype=np.float64) * self.scale_ + self.mean_
