"""The :class:`Sequential` network with mini-batch training.

Mirrors the small slice of Keras the paper uses: stack Dense/activation
layers, train with mini-batches under a phased learning-rate schedule,
read out class probabilities from the softmax head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.nn.guards import assert_finite, check_loss
from repro.nn.layers import Layer
from repro.nn.losses import SoftmaxCrossEntropy, check_labels, softmax
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.schedule import TrainingSchedule


#: Rows per inference block.  2048 float64 rows of the widest feature
#: configuration (165 columns) are 2.7 MB, against tens of MB for a
#: whole test set.
ROW_BLOCK = 2048


def row_blocks(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` ranges covering ``n`` rows in inference blocks.

    Boundaries fall at multiples of :data:`ROW_BLOCK`, and a 1-row tail
    joins the block before it: numpy sends a one-row matrix product
    through gemv instead of gemm, which rounds differently.

    >>> row_blocks(4097)
    [(0, 2048), (2048, 4097)]
    >>> row_blocks(4098)
    [(0, 2048), (2048, 4096), (4096, 4098)]
    """
    bounds = [*range(0, n, ROW_BLOCK), n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics collected by :meth:`Sequential.fit`."""

    losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.losses)


def _bind_flat(layers: list[Layer]) -> tuple[np.ndarray, np.ndarray]:
    """One parameter vector and one gradient vector for a training run.

    Copies every layer's parameters, in layer order, into a fresh flat
    vector and re-binds each layer's parameter and gradient arrays as
    reshaped views into it and into a matching zero gradient vector, so
    an optimiser step is a few ufunc calls over the whole network.
    Nothing is kept on the network: a pickled or copied network holds
    plain per-layer arrays and is re-bound by its next :meth:`fit`.
    """
    parameters = [param for layer in layers for param in layer.parameters()]
    flat = np.concatenate([param.ravel() for param in parameters] or [np.zeros(0)])
    grads = np.zeros_like(flat)
    offset = 0
    for layer in layers:
        param_views, grad_views = [], []
        for param in layer.parameters():
            stop = offset + param.size
            param_views.append(flat[offset:stop].reshape(param.shape))
            grad_views.append(grads[offset:stop].reshape(param.shape))
            offset = stop
        layer._bind(param_views, grad_views)
    return flat, grads


class Sequential:
    """An ordered stack of layers with a softmax-cross-entropy head."""

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ConfigurationError("network must contain at least one layer")
        self.layers = list(layers)
        self._loss = SoftmaxCrossEntropy()
        self._fitted = False

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers; returns the raw logits."""
        outputs = np.asarray(inputs, dtype=np.float64)
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)
        return outputs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate through all layers; returns the input gradient."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays, in layer order."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        """All gradient arrays, aligned with :meth:`parameters`."""
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def fit(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        schedule: TrainingSchedule,
        batch_size: int = 32,
        optimizer: Optimizer | None = None,
        rng: np.random.Generator | None = None,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Train with mini-batch gradient descent under a phase schedule.

        Each step runs over one flat parameter vector and one gradient
        vector (see :func:`_bind_flat`): the layers' arrays are views into
        them for the rest of this call, and every update is bit-identical
        to the per-array formulas.

        Parameters
        ----------
        inputs, labels:
            Training matrix ``(n, features)`` and integer class labels
            ``(n,)``.
        schedule:
            Epoch/learning-rate phases; the optimiser's learning rate is
            reassigned at each phase boundary (state such as Adam moments
            is kept, matching how Keras handles ``lr`` changes).
        batch_size:
            Mini-batch size (the paper uses 32).
        optimizer:
            Defaults to :class:`Adam`, Keras's conventional choice.  It is
            stepped with ``[flat_parameters]``; a reused optimiser keeps
            its state only for a network with the same parameter count.
        rng:
            Source of shuffling randomness; pass a seeded generator for
            reproducible training.

        Raises
        ------
        NumericError
            If ``inputs`` contains NaN/Inf values.
        DimensionError
            If a label is not a class of the network's output; raised
            before any weight changes.
        TrainingDivergedError
            If any epoch's mean loss becomes non-finite.
        """
        inputs = np.ascontiguousarray(inputs, dtype=np.float64)
        assert_finite(inputs, "training inputs")
        labels = np.asarray(labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ConfigurationError(f"inputs must be 2-D, got shape {inputs.shape}")
        if len(inputs) != len(labels):
            raise ConfigurationError(
                f"inputs ({len(inputs)}) and labels ({len(labels)}) disagree"
            )
        if len(inputs) == 0:
            raise ConfigurationError("cannot fit on an empty training set")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        n = len(inputs)
        # Every label is checked before the first step changes a weight.
        check_labels(labels, (n, self.forward(inputs[:1]).shape[1]))
        optimizer = optimizer if optimizer is not None else Adam()
        rng = rng if rng is not None else np.random.default_rng(0)
        parameters, gradients = _bind_flat(self.layers)
        # The lowest trainable layer needs no input gradient, and the
        # layers below it need no backward at all.
        trainable = [index for index, layer in enumerate(self.layers) if layer.parameters()]
        lowest = self.layers[trainable[0]] if trainable else None
        above = self.layers[trainable[0] + 1 :][::-1] if trainable else []
        batches = -(-n // batch_size)
        history = TrainingHistory()
        for learning_rate in schedule.epoch_rates():
            optimizer.learning_rate = learning_rate
            if shuffle:
                order = rng.permutation(n)
                epoch_inputs, epoch_labels = inputs[order], labels[order]
            else:
                epoch_inputs, epoch_labels = inputs, labels
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                stop = start + batch_size
                logits = self.forward(epoch_inputs[start:stop], training=True)
                loss = self._loss._forward(logits, epoch_labels[start:stop])
                grad = self._loss.backward()
                for layer in above:
                    grad = layer.backward(grad)
                if lowest is not None:
                    lowest._backward_gradients(grad)
                optimizer.step([parameters], [gradients])
                epoch_loss += loss
            history.losses.append(check_loss(epoch_loss / batches, len(history.losses)))
            history.learning_rates.append(learning_rate)
        self._fitted = True
        return history

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Class probabilities ``(n, classes)`` from the softmax head."""
        if not self._fitted:
            raise NotFittedError("network has not been trained; call fit() first")
        return softmax(self.forward(np.asarray(inputs, dtype=np.float64)))

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Hard class predictions ``(n,)``."""
        return self.predict_proba(inputs).argmax(axis=1)

    def num_parameters(self) -> int:
        """Total count of trainable scalars."""
        return sum(p.size for p in self.parameters())
