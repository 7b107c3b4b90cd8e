"""Feed-forward neural-network substrate (the paper's Keras substitute).

A compact numpy implementation of exactly what LEAPME's classifier needs:

* :mod:`repro.nn.initializers` -- He / Glorot / zeros initialisation.
* :mod:`repro.nn.activations` -- ReLU, sigmoid, tanh layers.
* :mod:`repro.nn.layers` -- fully connected (Dense) and Dropout layers.
* :mod:`repro.nn.losses` -- fused softmax cross-entropy.
* :mod:`repro.nn.optimizers` -- SGD (with momentum) and Adam.
* :mod:`repro.nn.schedule` -- the paper's phased learning-rate schedule
  (10 epochs at 1e-3, 5 at 1e-4, 5 at 1e-5).
* :mod:`repro.nn.network` -- :class:`Sequential` with mini-batch training,
  and :func:`row_blocks`, the row blocks inference runs in.

Gradients are verified against finite differences in the test suite.
"""

from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.layers import Dense, Dropout
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam
from repro.nn.schedule import TrainingPhase, TrainingSchedule, paper_schedule

__all__ = [
    "Dense",
    "Dropout",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "SoftmaxCrossEntropy",
    "SGD",
    "Adam",
    "Sequential",
    "TrainingPhase",
    "TrainingSchedule",
    "paper_schedule",
]
