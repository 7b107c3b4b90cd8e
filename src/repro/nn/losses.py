"""Loss functions.

Only the fused softmax + cross-entropy is needed (the paper's final layer
"has two neurons from which the final score is obtained"), but the fused
form is provided for any number of classes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for numerical stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def check_labels(labels: np.ndarray, logits_shape: tuple[int, ...]) -> None:
    """Raise :class:`DimensionError` unless ``labels`` index the logits' classes.

    ``labels`` must be one integer per row of a 2-D ``logits_shape``,
    each in ``[0, classes)``.
    """
    if len(logits_shape) != 2:
        raise DimensionError(f"logits must be 2-D, got shape {logits_shape}")
    if labels.shape != (logits_shape[0],):
        raise DimensionError(
            f"labels shape {labels.shape} incompatible with logits {logits_shape}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits_shape[1]:
        raise DimensionError("labels out of range for the given logits")


class SoftmaxCrossEntropy:
    """Fused softmax + categorical cross-entropy over integer labels.

    Fusing the two keeps the backward pass the numerically trivial
    ``probs - onehot(labels)``.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy of ``logits`` (n, classes) vs labels (n,)."""
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        check_labels(labels, logits.shape)
        return self._forward(logits, labels)

    def _forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """:meth:`forward` for arguments the caller has already checked."""
        self._probs = softmax(logits)
        self._labels = labels
        picked = self._probs[np.arange(len(labels)), labels]
        return float(-np.log(np.clip(picked, 1e-12, None)).mean())

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits."""
        if self._probs is None or self._labels is None:
            raise DimensionError("backward called before forward")
        grad = self._probs.copy()
        grad[np.arange(len(self._labels)), self._labels] -= 1.0
        return grad / len(self._labels)
