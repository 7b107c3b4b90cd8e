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
from repro.errors import (
    DataError,
    DimensionError,
    NotFittedError,
    TrainingDivergedError,
)
from repro.ml.logistic import LogisticRegression
from repro.ml.scaling import StandardScaler
from repro.nn.activations import ReLU
from repro.nn.guards import assert_finite
from repro.nn.layers import Dense
from repro.nn.network import ROW_BLOCK, Sequential, TrainingHistory, row_blocks
from repro.nn.optimizers import Adam

#: Degradation labels recorded by :class:`ResilientClassifier`.
DEGRADATION_REDUCED_LR = "reduced-lr"
DEGRADATION_CLASSICAL_FALLBACK = "classical-fallback"


@dataclass(frozen=True)
class FittedState:
    """The trained artifacts of a :class:`LeapmeClassifier`.

    The public contract for inspection and shared scoring: callers
    never reach into a classifier's private attributes.
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

    def match_scores(self, features: np.ndarray) -> np.ndarray:
        """Positive-class probabilities -- the paper's similarity scores.

        The one-member case of :func:`blocked_scores`: rows are scaled
        and scored in :func:`~repro.nn.network.row_blocks` through one
        float64 scratch block, so no float64 copy of the whole matrix
        is made.  The scores equal scoring the whole scaled matrix at
        once for every size the equivalence test pins (DESIGN §17).

        Raises :class:`~repro.errors.DimensionError` unless ``features``
        is 2-D with the fitted number of columns.
        """
        if self._network is None:
            raise NotFittedError("LeapmeClassifier is not fitted")
        features = np.asarray(features)
        width = self._network.layers[0].in_features
        if features.ndim != 2 or features.shape[1] != width:
            raise DimensionError(
                f"expected a 2-D matrix of {width} feature columns, "
                f"got shape {features.shape}"
            )
        (scores,) = blocked_scores(
            len(features),
            width,
            lambda start, stop: features[start:stop],
            [(self.fitted_state(), slice(None))],
        )
        return scores

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


def scoring_state(classifier) -> FittedState | None:
    """The network and scaler ``classifier`` scores with, if any.

    A :class:`LeapmeClassifier` (or a :class:`ResilientClassifier` that
    ended on a network rung) scores as ``network.predict_proba(
    scaler.transform(features))[:, 1]``; :func:`blocked_scores` can then
    feed it a shared scaled block.  ``None`` for anything else -- the
    classical rung, a classical classifier, a subclass with its own
    ``match_scores`` -- which keeps its own ``match_scores``.
    """
    if type(classifier).match_scores is ResilientClassifier.match_scores:
        classifier = classifier._delegate
    if getattr(type(classifier), "match_scores", None) is LeapmeClassifier.match_scores:
        return classifier.fitted_state()
    return None


class _ScaledBlock:
    """One float64 scratch block, filled once per row block.

    Holds the scaling its readers share: their scalers' ``mean_`` and
    ``scale_`` placed at the columns each reads (``scaler`` is ``None``
    for unscaled networks, whose block is a plain float64 copy).
    """

    def __init__(self, rows: int, width: int, scaled: bool) -> None:
        self.block = np.empty((rows, width))
        self.scaler = None
        if scaled:
            self.scaler = StandardScaler()
            self.scaler.mean_ = np.zeros(width)
            self.scaler.scale_ = np.ones(width)
        self.known = np.zeros(width, dtype=bool)
        #: ``(member index, columns, network)`` of every reader.
        self.readers: list[tuple[int, object, Sequential]] = []

    def admits(self, scaler: StandardScaler | None, columns) -> bool:
        """Whether ``scaler`` agrees with this block on every known column."""
        if (scaler is None) != (self.scaler is None):
            return False
        if scaler is None:
            return True
        known = self.known[columns]
        return np.array_equal(
            self.scaler.mean_[columns][known], scaler.mean_[known]
        ) and np.array_equal(self.scaler.scale_[columns][known], scaler.scale_[known])

    def add(self, index: int, columns, state: FittedState) -> None:
        if state.scaler is not None:
            self.scaler.mean_[columns] = state.scaler.mean_
            self.scaler.scale_[columns] = state.scaler.scale_
        self.known[columns] = True
        self.readers.append((index, columns, state.network))

    def fill(self, features: np.ndarray) -> np.ndarray:
        block = self.block[: len(features)]
        if self.scaler is None:
            block[...] = features
        else:
            self.scaler.transform(features, out=block)
        return block


def blocked_scores(
    n_rows: int, width: int, read_block, members
) -> list[np.ndarray]:
    """Positive-class scores of ``n_rows`` rows for every member.

    The one scale-and-forward loop over
    :func:`~repro.nn.network.row_blocks`:
    :meth:`LeapmeClassifier.match_scores` is its one-member case, and
    :func:`repro.core.matcher.score_together` feeds it a store's row
    blocks for several matchers at once.

    ``read_block(start, stop)`` returns rows ``start:stop`` as one 2-D
    array of ``width`` columns, which all members share.  A member is
    ``(scorer, columns)``: ``columns`` (a slice or an index array)
    picks its features out of that block, and ``scorer`` is either a
    :class:`FittedState` or a classifier.

    * Network members read their columns from a float64 scratch block.
      Each row block is scaled once per group of members whose scalers
      agree on every column they read (and copied once for unscaled
      networks); a member that disagrees gets its own block.  Scaling
      is elementwise, so every member reads exactly the values its own
      ``scaler.transform`` would give.
    * A classifier member gets its own ``match_scores`` call on its
      columns of the same block, in the same row blocks.
    """
    rows = min(n_rows, ROW_BLOCK + 1)
    blocks: list[_ScaledBlock] = []
    plain: list[tuple[int, object, object]] = []
    for index, (scorer, columns) in enumerate(members):
        if not isinstance(scorer, FittedState):
            plain.append((index, columns, scorer))
            continue
        target = next(
            (block for block in blocks if block.admits(scorer.scaler, columns)),
            None,
        )
        if target is None:
            target = _ScaledBlock(rows, width, scaled=scorer.scaler is not None)
            blocks.append(target)
        target.add(index, columns, scorer)
    scores = [np.empty(n_rows) for _ in members]
    for start, stop in row_blocks(n_rows):
        features = read_block(start, stop)
        for block in blocks:
            scaled = block.fill(features)
            for index, columns, network in block.readers:
                scores[index][start:stop] = network.predict_proba(scaled[:, columns])[:, 1]
        for index, columns, classifier in plain:
            scores[index][start:stop] = classifier.match_scores(
                np.ascontiguousarray(features[:, columns])
            )
    return scores
