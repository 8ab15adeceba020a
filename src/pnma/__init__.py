"""Sequence-labeling toolkit with parameterized neighborhood memory adaptation.

A base alternating-LSTM+CRF tagger, an activation memory with exact K-NN
retrieval, a learned neighborhood aggregation that replaces the classifier
input with a convex combination of retrieved neighbors, two-phase training,
and a diagnostic suite.
"""

from .config import TrainConfig
from .dataio import (
    Instance,
    Vocabulary,
    bio_decode_spans,
    build_vocab,
    load_external_embeddings,
    parse_conll_file,
)
from .inference import predict_pnma_corpus
from .memory import ActivationMemory, NeighborSet, build_memory, knn_query
from .neighborhood import NeighborhoodParams

__all__ = [
    "ActivationMemory",
    "Instance",
    "NeighborSet",
    "NeighborhoodParams",
    "TrainConfig",
    "Vocabulary",
    "bio_decode_spans",
    "build_memory",
    "build_vocab",
    "knn_query",
    "load_external_embeddings",
    "parse_conll_file",
    "predict_pnma_corpus",
]

__version__ = "0.1.0"
