"""Word-embedding substrate (the paper's pre-trained GloVe substitute).

The paper uses 300-dimensional GloVe vectors pre-trained on Common Crawl.
Operating offline, this package instead *trains* embeddings from scratch:

* :mod:`repro.embeddings.vocab` -- token <-> index vocabulary.
* :mod:`repro.embeddings.lexicon` -- synonym lexicon describing which
  domain words are semantically equivalent ("mp" ~ "megapixels").
* :mod:`repro.embeddings.corpus` -- synthetic domain-corpus generator whose
  sentences make synonym-group members share contexts.
* :mod:`repro.embeddings.cooccurrence` -- windowed co-occurrence counting.
* :mod:`repro.embeddings.glove_like` -- PPMI + truncated-SVD embeddings,
  the classic count-based approximation of GloVe/word2vec geometry.
* :mod:`repro.embeddings.hashing` -- deterministic feature-hashing
  embeddings used as a semantics-free control.
* :mod:`repro.embeddings.base` -- the :class:`WordEmbeddings` container
  with the paper's out-of-vocabulary policy (unknown word -> zero vector)
  and average-of-words text encoding.
* :mod:`repro.embeddings.sif` -- SIF-weighted text encoding (smooth
  inverse frequency + common-direction removal, Arora et al. 2017).
"""

from repro.embeddings.base import WordEmbeddings
from repro.embeddings.cooccurrence import CooccurrenceCounts, build_cooccurrence
from repro.embeddings.corpus import CorpusGenerator
from repro.embeddings.glove_like import train_glove_like
from repro.embeddings.hashing import hash_embeddings
from repro.embeddings.lexicon import SynonymLexicon
from repro.embeddings.sif import SifEncoder
from repro.embeddings.vocab import Vocabulary

__all__ = [
    "WordEmbeddings",
    "Vocabulary",
    "SynonymLexicon",
    "CorpusGenerator",
    "CooccurrenceCounts",
    "build_cooccurrence",
    "train_glove_like",
    "hash_embeddings",
    "SifEncoder",
]
