"""The seed scalar ``HnswIndex``, kept verbatim as the reference oracle
for :class:`repro.baselines.hnsw.HnswIndex`: one Python ``_distance``
call (two ``np.linalg.norm`` and one ``np.dot``) per scored pair, vectors
kept as a list of 1-D arrays. The graph-identity suite builds both on the
same inputs and asserts equal links, entry point and top layer."""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Optional

import numpy as np


class HnswIndex:
    """Cosine-distance HNSW over unit-normalised vectors."""

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
        self._vectors: list[np.ndarray] = []
        self._keys: list[Any] = []
        # _links[level][node] -> list of neighbour node ids
        self._links: list[dict[int, list[int]]] = []
        self._entry_point: Optional[int] = None
        self._max_level = -1

    def __len__(self) -> int:
        return len(self._vectors)

    # -- construction ------------------------------------------------------------

    def add(self, key: Any, vector: np.ndarray) -> None:
        """Insert one item (key is returned by searches)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dimensions,):
            raise ValueError(
                f"vector has shape {vector.shape}, expected ({self.dimensions},)"
            )
        node = len(self._vectors)
        self._vectors.append(vector)
        self._keys.append(key)
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
            current = self._greedy_closest(vector, current, l)
        # Beam search + linking on the remaining layers.
        for l in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(vector, [current], l, self.ef_construction)
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
                # Prune to the closest max_degree neighbours.
                source_vector = self._vectors[source]
                links.sort(key=lambda n: self._distance(source_vector, self._vectors[n]))
                del links[max_degree:]

    def _level_of(self, node: int) -> int:
        for l in range(self._max_level, -1, -1):
            if node in self._links[l]:
                return l
        return 0

    # -- search --------------------------------------------------------------------

    def search(self, vector: np.ndarray, k: int = 10, ef: Optional[int] = None) -> list[tuple[Any, float]]:
        """The approximately closest *k* items as (key, cosine similarity),
        best first."""
        if self._entry_point is None:
            return []
        vector = np.asarray(vector, dtype=np.float64)
        ef = max(ef or self.ef_construction, k)
        current = self._entry_point
        for l in range(self._max_level, 0, -1):
            current = self._greedy_closest(vector, current, l)
        candidates = self._search_layer(vector, [current], 0, ef)
        best = heapq.nsmallest(k, candidates)
        return [(self._keys[node], 1.0 - distance) for distance, node in best]

    def _greedy_closest(self, vector: np.ndarray, start: int, level: int) -> int:
        current = start
        current_distance = self._distance(vector, self._vectors[current])
        improved = True
        while improved:
            improved = False
            for neighbour in self._links[level].get(current, ()):
                distance = self._distance(vector, self._vectors[neighbour])
                if distance < current_distance:
                    current = neighbour
                    current_distance = distance
                    improved = True
        return current

    def _search_layer(
        self, vector: np.ndarray, entry_points: list[int], level: int, ef: int
    ) -> list[tuple[float, int]]:
        """Beam search returning (distance, node) pairs (unordered heap)."""
        visited = set(entry_points)
        candidates = [
            (self._distance(vector, self._vectors[node]), node) for node in entry_points
        ]
        heapq.heapify(candidates)
        # Result set as a max-heap via negated distances.
        results = [(-distance, node) for distance, node in candidates]
        heapq.heapify(results)
        while candidates:
            distance, node = heapq.heappop(candidates)
            if results and distance > -results[0][0] and len(results) >= ef:
                break
            for neighbour in self._links[level].get(node, ()):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                neighbour_distance = self._distance(vector, self._vectors[neighbour])
                if len(results) < ef or neighbour_distance < -results[0][0]:
                    heapq.heappush(candidates, (neighbour_distance, neighbour))
                    heapq.heappush(results, (-neighbour_distance, neighbour))
                    if len(results) > ef:
                        heapq.heappop(results)
        return [(-negated, node) for negated, node in results]

    @staticmethod
    def _distance(a: np.ndarray, b: np.ndarray) -> float:
        """Cosine distance for unit-ish vectors."""
        norm = np.linalg.norm(a) * np.linalg.norm(b)
        if norm == 0:
            return 1.0
        return 1.0 - float(np.dot(a, b) / norm)

    # -- storage accounting ------------------------------------------------------------

    def storage_bytes(self) -> int:
        total = len(self._vectors) * self.dimensions * 8
        for layer in self._links:
            for links in layer.values():
                total += 16 + len(links) * 8
        return total
