"""Candidate generation for scalable multi-source property matching.

Algorithm 1 classifies *every* cross-source property pair -- O(P^2) in
the total property count, which the paper's camera dataset (3 200+
properties, ~5M pairs) already strains.  Blocking prunes the candidate
set before feature extraction, the standard scalability lever in the
schema/entity-matching literature (cf. Rahm, "Towards large-scale schema
and ontology matching").

Blocking is a first-class pipeline stage, not an evaluation-only
report: a :class:`CandidatePolicy` names a blocker and its parameters,
travels through CLI flags, serve tenant specs and ingest bootstrap, and
every
:class:`~repro.core.feature_cache.PairUniverse` enumerates only the
candidates its policy produces.  The ``null`` policy keeps the exact
full cross-product semantics.

* :mod:`repro.blocking.blockers` -- the :class:`Blocker` interface
  (index-pair native) and implementations: :class:`NullBlocker` (all
  pairs), :class:`TokenBlocker` (shared tokens),
  :class:`MinHashBlocker` (plain Duan-et-al. banding, baseline),
  :class:`SketchBlocker` (the production ``minhash`` policy: banded
  value sketches + name/digit/alpha channels + bounded transitive
  expansion) and :class:`EmbeddingLSHBlocker` (random-hyperplane
  buckets over property embeddings).
* :mod:`repro.blocking.policy` -- the serialisable policy record.
"""

from repro.blocking.blockers import (
    Blocker,
    BucketBlocker,
    EmbeddingLSHBlocker,
    MinHashBlocker,
    NullBlocker,
    SketchBlocker,
    TokenBlocker,
)
from repro.blocking.policy import CandidatePolicy

__all__ = [
    "Blocker",
    "BucketBlocker",
    "NullBlocker",
    "TokenBlocker",
    "MinHashBlocker",
    "SketchBlocker",
    "EmbeddingLSHBlocker",
    "CandidatePolicy",
]
