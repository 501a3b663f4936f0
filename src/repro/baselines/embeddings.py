"""Deterministic column embeddings (substitute for Starmie's contrastive
encoder and DeepJoin's fine-tuned language model).

No pretrained models exist offline, so columns are embedded by *feature
hashing*: each value token and each character trigram hashes into a fixed
number of dimensions with log-TF weighting, L2-normalised. Token features
give exact-content similarity; trigram features give a soft, "semantic-ish"
component (morphologically close vocabularies land close), which is enough
to reproduce the baselines' qualitative profile -- fast ANN retrieval with
result sets that differ from exact-overlap search (paper §VIII-D/F).

Two paths compute the same bits. Queries (:func:`embed_values`) go
through a per-token memo (:func:`_token_features`); index builds
(:func:`embed_bags`) hash a whole vocabulary once into a feature table
(:func:`vocabulary_features`, one CRC per distinct trigram) and sum every
bag with one ``np.bincount`` in :func:`embed_tokens`' accumulation order.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ..lake.table import Cell, Table, normalize_cell

DEFAULT_DIMENSIONS = 64
_TRIGRAM_WEIGHT = 0.35
_BAG_CHUNK = 64  # bags per np.bincount in embed_bags: bounds the expanded stream


def _feature_slot(feature: str, dimensions: int) -> tuple[int, float]:
    """Stable (dimension, sign) for a feature string.

    CRC32 is deterministic across processes (unlike ``hash()``) and an
    order of magnitude faster than cryptographic digests -- embedding is
    on DeepJoin's query path, where the paper's system only pays one
    encoder forward pass.
    """
    raw = zlib.crc32(feature.encode())
    slot = raw % dimensions
    sign = 1.0 if (raw >> 16) & 1 else -1.0
    return slot, sign


@lru_cache(maxsize=500_000)
def _token_features(token: str, dimensions: int) -> tuple[tuple[int, float], ...]:
    """Cached (slot, signed weight) contributions of one token -- the
    analogue of an encoder's cached vocabulary embeddings."""
    contributions = [_feature_slot("tok:" + token, dimensions)]
    for trigram in _trigrams(token):
        slot, sign = _feature_slot("tri:" + trigram, dimensions)
        contributions.append((slot, sign * _TRIGRAM_WEIGHT))
    return tuple(contributions)


def embed_tokens(tokens: Iterable[str], dimensions: int = DEFAULT_DIMENSIONS) -> np.ndarray:
    """Embed a bag of tokens into a unit vector (zero vector if empty)."""
    counts = Counter(tokens)  # first-appearance order
    vector = np.zeros(dimensions, dtype=np.float64)
    for token, count in counts.items():
        weight = 1.0 + math.log(count)
        for slot, contribution in _token_features(token, dimensions):
            vector[slot] += contribution * weight
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector


def vocabulary_features(vocabulary: Sequence[str], dimensions: int) -> tuple[np.ndarray, ...]:
    """:func:`_token_features` of a whole vocabulary, hashing each distinct
    trigram once: token *i*'s contributions, in the same order, are the
    ``lengths[i]`` entries of ``slots`` / ``weights`` from ``starts[i]``.
    Entry ``starts[i] + j`` is the window at that point of the joined
    " ##token##" texts: trigram j - 1, or for j = 0 the token's feature."""
    lengths = np.fromiter(map(len, vocabulary), dtype=np.int64, count=len(vocabulary)) + 3
    starts = np.cumsum(lengths + 2) - lengths - 2
    text = "".join(f" ##{token}##" for token in vocabulary).encode("utf-32-le")
    points = np.frombuffer(text, dtype="<u4").astype(np.int64)
    windows = (points[:-2] << 42) | (points[1:-1] << 21) | points[2:]
    distinct, which = np.unique(windows, return_inverse=True)
    grams = [chr(key >> 42) + chr(key >> 21 & 0x1FFFFF) + chr(key & 0x1FFFFF) for key in distinct]
    features = np.array([_feature_slot("tri:" + g, dimensions) for g in grams]).reshape(-1, 2)[which]
    features[:, 1] *= _TRIGRAM_WEIGHT
    tokens = [_feature_slot("tok:" + token, dimensions) for token in vocabulary]
    features[starts] = np.array(tokens).reshape(-1, 2)
    return starts, lengths, features[:, 0].astype(np.int64), features[:, 1]


def embed_bags(
    bags: np.ndarray,
    codes: np.ndarray,
    counts: np.ndarray,
    vocabulary: Sequence[str],
    dimensions: int = DEFAULT_DIMENSIONS,
) -> np.ndarray:
    """:func:`embed_tokens` of many bags, bit for bit: bag ``bags[e]``
    (ascending from 0) holds ``vocabulary[codes[e]]`` ``counts[e]`` times,
    its tokens in first-appearance order. Sums ``_BAG_CHUNK`` bags at a time."""
    starts, lengths, slots, weights = vocabulary_features(vocabulary, dimensions)
    distinct, which = np.unique(counts, return_inverse=True)
    entry_weights = np.array([1.0 + math.log(count) for count in distinct.tolist()])[which]
    num_bags = int(bags[-1]) + 1 if len(bags) else 0
    matrix = np.zeros((-(-num_bags // _BAG_CHUNK) * _BAG_CHUNK, dimensions))
    bounds = np.searchsorted(bags, np.arange(0, len(matrix) + 1, _BAG_CHUNK))
    for first, lo, hi in zip(range(0, num_bags, _BAG_CHUNK), bounds, bounds[1:]):
        length = lengths[codes[lo:hi]]
        entry = np.repeat(np.arange(hi - lo), length)
        feature = np.arange(len(entry)) + (starts[codes[lo:hi]] - np.cumsum(length) + length)[entry]
        stream = weights[feature] * entry_weights[lo:hi][entry]
        index = (bags[lo:hi][entry] - first) * dimensions + slots[feature]
        block = np.bincount(index, stream, minlength=_BAG_CHUNK * dimensions)
        matrix[first : first + _BAG_CHUNK] = block.reshape(_BAG_CHUNK, dimensions)
    for vector in matrix[:num_bags]:
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
    return matrix[:num_bags]


def embed_column(
    table: Table, column_position: int, dimensions: int = DEFAULT_DIMENSIONS
) -> np.ndarray:
    """Embed one table column by its value tokens."""
    return embed_values([row[column_position] for row in table.rows], dimensions)


def embed_values(values: Sequence[Cell], dimensions: int = DEFAULT_DIMENSIONS) -> np.ndarray:
    """Embed a raw value list (query columns)."""
    tokens = [token for token in map(normalize_cell, values) if token is not None]
    return embed_tokens(tokens, dimensions)


def cosine_distances(
    rows: np.ndarray, norms: np.ndarray, vector: np.ndarray, norm: float
) -> np.ndarray:
    """Cosine distances from a contiguous float64 *vector* of L2 norm
    *norm* to each of *rows*, whose norms are *norms* (a zero row's stored
    as infinity). Row-independent -- a row scores the same bits alone, in
    any subset or in any matrix -- because ``np.einsum("ij,j->i")``
    reduces each row on its own; BLAS ``rows @ vector`` shifts last bits
    with the matrix shape, which would break shard-vs-solo byte identity."""
    # A zero vector's norm counts as infinite: its quotient is 0, its distance 1.0.
    return 1.0 - np.einsum("ij,j->i", rows, vector) / (norms * (norm or np.inf))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two (possibly zero) vectors."""
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm == 0:
        return 0.0
    return float(np.dot(a, b) / norm)


def _trigrams(token: str) -> list[str]:
    padded = f"##{token}##"
    return [padded[i : i + 3] for i in range(len(padded) - 2)]
