"""The LEAPME classifier: a dense network with the paper's hyper-parameters.

"it consists of two fully connected hidden layers of sizes 128 and 64.
We use a batch size of 32 and perform 10 epochs with learning rate 1e-3,
5 with 1e-4, and 5 with 1e-5. ... The final layer has two neurons from
which the final score is obtained for the two possible outcomes
(positive/negative).  This allows the use of the positive output as a
similarity score."

Besides the faithful :class:`LeapmeClassifier`, this module provides
:class:`ResilientClassifier`, a degradation ladder for fault-tolerant
experiment grids: diverged training is retried at a reduced learning
rate and finally falls back to a classical logistic-regression
classifier, so a repetition still produces a score instead of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.classical import ClassicalPairClassifier
from repro.core.config import LeapmeConfig
from repro.errors import DataError, NotFittedError, TrainingDivergedError
from repro.ml.logistic import LogisticRegression
from repro.ml.scaling import StandardScaler
from repro.nn.activations import ReLU
from repro.nn.guards import assert_finite
from repro.nn.layers import Dense
from repro.nn.network import Sequential, TrainingHistory
from repro.nn.optimizers import Adam

#: Degradation labels recorded by :class:`ResilientClassifier`.
DEGRADATION_REDUCED_LR = "reduced-lr"
DEGRADATION_CLASSICAL_FALLBACK = "classical-fallback"


@dataclass(frozen=True)
class FittedState:
    """The trained artifacts of a :class:`LeapmeClassifier`.

    The public contract for persistence and inspection: callers
    (``repro.core.persistence`` among them) never reach into private
    attributes to serialise a classifier.
    """

    network: Sequential
    scaler: StandardScaler | None


class LeapmeClassifier:
    """Binary pair classifier producing a match probability per pair."""

    def __init__(self, config: LeapmeConfig | None = None) -> None:
        self.config = config if config is not None else LeapmeConfig()
        self._network: Sequential | None = None
        self._scaler: StandardScaler | None = None
        self.history: TrainingHistory | None = None

    def _build_network(self, n_features: int) -> Sequential:
        rng = np.random.default_rng(self.config.seed)
        layers = []
        in_size = n_features
        for hidden in self.config.hidden_sizes:
            layers.append(Dense(in_size, hidden, rng=rng))
            layers.append(ReLU())
            in_size = hidden
        layers.append(Dense(in_size, 2, rng=rng))
        return Sequential(layers)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LeapmeClassifier":
        """Train on pair features and binary labels (1 = match).

        Raises :class:`~repro.errors.NumericError` on NaN/Inf features
        and :class:`~repro.errors.TrainingDivergedError` when the loss
        becomes non-finite, instead of silently producing NaN scores.
        """
        features = np.asarray(features, dtype=np.float64)
        assert_finite(features, "pair features")
        if self.config.scale_features:
            self._scaler = StandardScaler()
            features = self._scaler.fit_transform(features)
        else:
            self._scaler = None
        self._network = self._build_network(features.shape[1])
        try:
            self.history = self._network.fit(
                features,
                np.asarray(labels, dtype=np.int64),
                schedule=self.config.schedule,
                batch_size=self.config.batch_size,
                optimizer=Adam(),
                rng=np.random.default_rng(self.config.seed + 1),
            )
        except TrainingDivergedError:
            # A half-trained (diverged) network must not look fitted.
            self._network = None
            raise
        return self

    def fitted_state(self) -> FittedState:
        """The trained network and scaler (raises before :meth:`fit`)."""
        if self._network is None:
            raise NotFittedError("LeapmeClassifier is not fitted")
        return FittedState(network=self._network, scaler=self._scaler)

    def restore_fitted_state(self, state: FittedState) -> "LeapmeClassifier":
        """Install previously trained artifacts (the load-time inverse of
        :meth:`fitted_state`); returns ``self`` for chaining."""
        self._network = state.network
        self._scaler = state.scaler
        return self

    def _transform(self, features: np.ndarray) -> np.ndarray:
        if self._scaler is not None:
            return self._scaler.transform(features)
        return np.asarray(features, dtype=np.float64)

    def match_scores(self, features: np.ndarray) -> np.ndarray:
        """Positive-class probabilities -- the paper's similarity scores."""
        if self._network is None:
            raise NotFittedError("LeapmeClassifier is not fitted")
        if len(features) == 0:
            return np.zeros(0)
        return self._network.predict_proba(self._transform(features))[:, 1]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard match decisions at the configured threshold."""
        return (self.match_scores(features) >= self.config.decision_threshold).astype(
            np.int64
        )


def _default_fallback(config: LeapmeConfig) -> ClassicalPairClassifier:
    """The ladder's last rung: logistic regression over the same features."""
    return ClassicalPairClassifier(
        LogisticRegression(), scale_features=config.scale_features
    )


class ResilientClassifier:
    """A pair classifier with graceful degradation under divergence.

    Training proceeds down a ladder until one rung succeeds:

    1. the primary network with the configured schedule;
    2. on :class:`~repro.errors.TrainingDivergedError`, the primary again
       with every learning rate scaled by ``lr_backoff``;
    3. on a second divergence, a classical logistic-regression classifier
       over the same pair features.

    ``degradation`` records which rung produced the model (``None`` for
    the primary, :data:`DEGRADATION_REDUCED_LR` or
    :data:`DEGRADATION_CLASSICAL_FALLBACK` otherwise) so runners and
    journals can surface that a score came from a degraded model.

    Parameters
    ----------
    config:
        Hyper-parameters for the primary network (and the scaling flag
        shared with the fallback).
    primary_factory:
        ``config -> classifier``; defaults to :class:`LeapmeClassifier`.
        The fault-injection harness substitutes deterministic diverging
        primaries here.
    lr_backoff:
        Learning-rate multiplier for rung 2 (default 0.1).
    fallback_factory:
        ``config -> classifier`` for rung 3; defaults to logistic
        regression via :class:`ClassicalPairClassifier`.
    """

    def __init__(
        self,
        config: LeapmeConfig | None = None,
        primary_factory=None,
        lr_backoff: float = 0.1,
        fallback_factory=None,
    ) -> None:
        self.config = config if config is not None else LeapmeConfig()
        self._primary_factory = (
            primary_factory if primary_factory is not None else LeapmeClassifier
        )
        self._fallback_factory = (
            fallback_factory if fallback_factory is not None else _default_fallback
        )
        self.lr_backoff = lr_backoff
        self._delegate = None
        self.degradation: str | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "ResilientClassifier":
        """Train down the degradation ladder; always ends with a model
        (or re-raises the fallback's own failure)."""
        self._delegate = None
        self.degradation = None
        try:
            self._delegate = self._primary_factory(self.config)
            self._delegate.fit(features, labels)
            return self
        except TrainingDivergedError:
            pass
        try:
            reduced = replace(
                self.config, schedule=self.config.schedule.scaled(self.lr_backoff)
            )
            self._delegate = self._primary_factory(reduced)
            self._delegate.fit(features, labels)
            self.degradation = DEGRADATION_REDUCED_LR
            return self
        except TrainingDivergedError:
            pass
        self._delegate = self._fallback_factory(self.config)
        self._delegate.fit(features, labels)
        self.degradation = DEGRADATION_CLASSICAL_FALLBACK
        return self

    def fitted_state(self) -> FittedState:
        """The delegate's trained artifacts, when it has a network.

        Raises :class:`~repro.errors.DataError` after a classical
        fallback -- there is no network to serialise then.
        """
        if self._delegate is None:
            raise NotFittedError("ResilientClassifier is not fitted")
        accessor = getattr(self._delegate, "fitted_state", None)
        if accessor is None:
            raise DataError(
                "classifier degraded to a classical fallback; "
                "it holds no serialisable network state"
            )
        return accessor()

    def match_scores(self, features: np.ndarray) -> np.ndarray:
        """Positive-class probabilities from whichever rung trained."""
        if self._delegate is None:
            raise NotFittedError("ResilientClassifier is not fitted")
        return self._delegate.match_scores(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard match decisions at the configured threshold."""
        return (
            self.match_scores(features) >= self.config.decision_threshold
        ).astype(np.int64)
