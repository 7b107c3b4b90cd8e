"""Classical machine-learning substrate (scikit-learn substitute).

The Nezhadi et al. baseline aggregates string-similarity features with
classical supervised learners.  This package provides from-scratch numpy
implementations of the classifier families that work evaluated (decision
trees, boosting, k-NN, naive Bayes) plus logistic regression and feature
scaling:

* :mod:`repro.ml.base` -- the estimator protocol.
* :mod:`repro.ml.scaling` -- standard (z-score) scaler.
* :mod:`repro.ml.tree` -- CART decision tree with Gini impurity.
* :mod:`repro.ml.adaboost` -- AdaBoost (SAMME) over depth-limited trees.
* :mod:`repro.ml.knn` -- k-nearest-neighbour classifier.
* :mod:`repro.ml.naive_bayes` -- Gaussian naive Bayes.
* :mod:`repro.ml.logistic` -- binary / multinomial logistic regression.
"""

from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.base import Classifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.scaling import StandardScaler
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "Classifier",
    "StandardScaler",
    "DecisionTreeClassifier",
    "AdaBoostClassifier",
    "KNeighborsClassifier",
    "GaussianNaiveBayes",
    "LogisticRegression",
]
