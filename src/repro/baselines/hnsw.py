"""HNSW: Hierarchical Navigable Small World graphs, from scratch.

The approximate-nearest-neighbour index Starmie and DeepJoin use for
embedding retrieval (Malkov & Yashunin, TPAMI 2018). Implements the
standard algorithm over cosine distance:

* geometric level assignment (``floor(-ln(U) * mL)``),
* greedy descent through upper layers (ef = 1),
* beam search (``ef_construction`` / ``ef_search``) on lower layers,
* bidirectional linking with degree pruning to ``M`` (``2M`` on layer 0).

Deterministic given the seed. Pure Python + NumPy; built for the
tens-of-thousands-of-columns scale of the synthetic lakes.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Optional

import numpy as np

from .embeddings import cosine_distances


class HnswIndex:
    """Cosine-distance HNSW over unit-normalised vectors.

    Vectors are rows of one growing float64 matrix, each row's norm
    computed once at :meth:`add`. Every distance comes from
    :meth:`distances`, which hands a list of rows at once to the
    row-independent kernel :func:`~repro.baselines.embeddings.cosine_distances`:
    ``1 - dot / (norm_row * norm_query)``, 1.0 when either vector is 0.

    Known deviation from Malkov & Yashunin, kept on purpose: the
    entry-point update reads a node's level from the graph
    (:meth:`_level_of`), and ``_connect``'s ``setdefault`` gives the old
    entry point the new node's layer when a node rises above the old top
    layer. Tracking drawn levels instead yields a different graph.
    """

    def __init__(
        self,
        dimensions: int,
        m: int = 8,
        ef_construction: int = 64,
        seed: int = 0,
    ) -> None:
        if m < 2:
            raise ValueError("M must be at least 2")
        self.dimensions = dimensions
        self.m = m
        self.ef_construction = ef_construction
        self._level_multiplier = 1.0 / math.log(m)
        self._rng = random.Random(seed)
        self._matrix = np.zeros((0, dimensions), dtype=np.float64)
        self._norms = np.zeros(0, dtype=np.float64)
        self._size = 0
        self.keys: list[Any] = []  # row order
        # _links[level][node] -> list of neighbour node ids
        self._links: list[dict[int, list[int]]] = []
        self._entry_point: Optional[int] = None
        self._max_level = -1

    def __len__(self) -> int:
        return self._size

    @property
    def vectors(self) -> np.ndarray:
        """The stored vectors, one row per key."""
        return self._matrix[: self._size]

    # -- construction ------------------------------------------------------------

    def add(self, key: Any, vector: np.ndarray) -> None:
        """Insert one item (key is returned by searches)."""
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        if vector.shape != (self.dimensions,):
            raise ValueError(
                f"vector has shape {vector.shape}, expected ({self.dimensions},)"
            )
        node = self._size
        if node == len(self._norms):  # grow by doubling; rows past _size are unused
            self._matrix = np.resize(self._matrix, (max(16, 2 * node), self.dimensions))
            self._norms = np.resize(self._norms, len(self._matrix))
        norm = float(np.linalg.norm(vector))
        self._matrix[node] = vector
        self._norms[node] = norm or np.inf  # see distances
        self._size += 1
        self.keys.append(key)
        level = int(-math.log(max(self._rng.random(), 1e-12)) * self._level_multiplier)

        while self._max_level < level:
            self._links.append({})
            self._max_level += 1
        for l in range(level + 1):
            self._links[l].setdefault(node, [])

        if self._entry_point is None:
            self._entry_point = node
            return

        current = self._entry_point
        # Greedy descent on layers above the new node's level.
        for l in range(self._max_level, level, -1):
            current = self._greedy_closest(vector, norm, current, l)
        # Beam search + linking on the remaining layers.
        for l in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(vector, norm, [current], l, self.ef_construction)
            neighbours = [node_id for _, node_id in heapq.nsmallest(self.m, candidates)]
            for neighbour in neighbours:
                self._connect(node, neighbour, l)
            if candidates:
                current = min(candidates)[1]
        if level > self._level_of(self._entry_point):
            self._entry_point = node

    def _connect(self, a: int, b: int, level: int) -> None:
        max_degree = self.m * 2 if level == 0 else self.m
        for source, target in ((a, b), (b, a)):
            links = self._links[level].setdefault(source, [])
            if target in links or source == target:
                continue
            links.append(target)
            if len(links) > max_degree:
                # Prune to the closest max_degree neighbours (stable sort).
                scores = self.distances(self._matrix[source], self._norms[source], links)
                links[:] = [links[i] for i in np.argsort(scores, kind="stable")[:max_degree]]

    def _level_of(self, node: int) -> int:
        for l in range(self._max_level, -1, -1):
            if node in self._links[l]:
                return l
        return 0

    # -- search --------------------------------------------------------------------

    def distances(self, vector: np.ndarray, norm: float, ids: Optional[list] = None) -> np.ndarray:
        """Cosine distances from a contiguous float64 *vector* of L2 norm
        *norm* to the rows *ids* (every row when ``None``)."""
        if ids is None:
            rows, norms = self.vectors, self._norms[: self._size]
        else:
            rows, norms = self._matrix.take(ids, axis=0), self._norms.take(ids)
        return cosine_distances(rows, norms, vector, norm)

    def search(self, vector: np.ndarray, k: int = 10, ef: Optional[int] = None) -> list[tuple[Any, float]]:
        """The approximately closest *k* items as (key, cosine similarity),
        best first."""
        if self._entry_point is None:
            return []
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        norm = float(np.linalg.norm(vector))
        ef = max(ef or self.ef_construction, k)
        current = self._entry_point
        for l in range(self._max_level, 0, -1):
            current = self._greedy_closest(vector, norm, current, l)
        candidates = self._search_layer(vector, norm, [current], 0, ef)
        best = heapq.nsmallest(k, candidates)
        return [(self.keys[node], 1.0 - distance) for distance, node in best]

    def _greedy_closest(self, vector: np.ndarray, norm: float, start: int, level: int) -> int:
        current = start
        current_distance = float(self.distances(vector, norm, [start])[0])
        improved = True
        while improved:
            improved = False
            neighbours = self._links[level].get(current, [])
            for neighbour, distance in zip(neighbours, self.distances(vector, norm, neighbours).tolist()):
                if distance < current_distance:
                    current = neighbour
                    current_distance = distance
                    improved = True
        return current

    def _search_layer(
        self, vector: np.ndarray, norm: float, entry_points: list[int], level: int, ef: int
    ) -> list[tuple[float, int]]:
        """Beam search returning (distance, node) pairs (unordered heap)."""
        visited = set(entry_points)
        candidates = list(zip(self.distances(vector, norm, entry_points).tolist(), entry_points))
        heapq.heapify(candidates)
        # Result set as a max-heap via negated distances.
        results = [(-distance, node) for distance, node in candidates]
        heapq.heapify(results)
        links = self._links[level]
        while candidates:
            distance, node = heapq.heappop(candidates)
            if results and distance > -results[0][0] and len(results) >= ef:
                break
            fresh = [n for n in links.get(node, ()) if n not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            for neighbour, neighbour_distance in zip(fresh, self.distances(vector, norm, fresh).tolist()):
                if len(results) < ef or neighbour_distance < -results[0][0]:
                    heapq.heappush(candidates, (neighbour_distance, neighbour))
                    heapq.heappush(results, (-neighbour_distance, neighbour))
                    if len(results) > ef:
                        heapq.heappop(results)
        return [(-negated, node) for negated, node in results]

    # -- storage accounting ------------------------------------------------------------

    def storage_bytes(self) -> int:
        total = self._size * self.dimensions * 8
        for layer in self._links:
            for links in layer.values():
                total += 16 + len(links) * 8
        return total
