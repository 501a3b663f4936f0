"""Correlation-discovery benchmark generator (Table VII workload).

Models the paper's NYC-open-data experiment: a lake of tables with a join
key column plus numeric columns, where some numeric columns are planted at
controlled Pearson correlation with a hidden per-key signal. A query is a
(join key, numeric target) column pair whose target follows the same
signal; the ground truth is the *exact* top-k |Pearson| over joined pairs.

Two key regimes reproduce the paper's two benchmarks:

* ``categorical`` keys (NYC (Cat.)) -- entity-name strings, the only
  regime the original QCR sketch supports;
* ``mixed`` keys (NYC (All)) -- half the queries use *numeric* join keys,
  which break the baseline's categorical-only hashing but work in BLEND.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

from ..datalake import DataLake
from ..table import Table, normalize_cell, numeric_value
from .corpus import CorpusConfig, generate_corpus
from .vocabulary import Vocabulary


@dataclass(frozen=True)
class CorrelationQuery:
    """A (join key, numeric target) query column pair."""

    name: str
    keys: tuple
    targets: tuple[float, ...]
    key_is_numeric: bool


@dataclass
class CorrelationBenchmark:
    lake: DataLake
    queries: list[CorrelationQuery]

    def exact_correlations(self, query: CorrelationQuery) -> list[tuple[int, int, float]]:
        """``(table_id, column_id, |pearson|)`` for every joinable numeric
        column in the lake, computed exactly on joined value pairs."""
        target_by_key = {}
        for key, target in zip(query.keys, query.targets):
            token = normalize_cell(key)
            if token is not None:
                target_by_key.setdefault(token, target)
        results = []
        for table_id, table in enumerate(self.lake):
            numeric_flags = table.numeric_columns()
            for key_position in range(table.num_columns):
                if numeric_flags[key_position] and not query.key_is_numeric:
                    continue
                key_tokens = [normalize_cell(row[key_position]) for row in table.rows]
                matched = [
                    (row_index, target_by_key[token])
                    for row_index, token in enumerate(key_tokens)
                    if token in target_by_key
                ]
                if len(matched) < 3:
                    continue
                for column_id in range(table.num_columns):
                    if column_id == key_position or not numeric_flags[column_id]:
                        continue
                    xs, ys = [], []
                    for row_index, target in matched:
                        value = numeric_value(table.rows[row_index][column_id])
                        if value is not None:
                            xs.append(target)
                            ys.append(value)
                    coefficient = _pearson(xs, ys)
                    if coefficient is not None:
                        results.append((table_id, column_id, abs(coefficient)))
        return results

    def ground_truth(self, query: CorrelationQuery, k: int) -> list[int]:
        """Exact top-k table ids by best |Pearson| column."""
        best_per_table: dict[int, float] = {}
        for table_id, _, coefficient in self.exact_correlations(query):
            if coefficient > best_per_table.get(table_id, -1.0):
                best_per_table[table_id] = coefficient
        ranked = sorted(best_per_table.items(), key=lambda item: (-item[1], item[0]))
        return [table_id for table_id, _ in ranked[:k]]


def _pearson(xs: list[float], ys: list[float]) -> Optional[float]:
    n = len(xs)
    if n < 3:
        return None
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return None
    return cov / math.sqrt(var_x * var_y)


def make_correlation_benchmark(
    num_queries: int = 6,
    num_entities: int = 120,
    tables_per_query: int = 5,
    rows_per_table: int = 80,
    distractor_tables: int = 15,
    key_regime: Literal["categorical", "mixed"] = "categorical",
    seed: int = 17,
    name: str = "corr_bench",
) -> CorrelationBenchmark:
    """Build a correlation benchmark with planted correlation strengths.

    Per query: a hidden signal over an entity universe; lake tables carry
    numeric columns at correlation strengths {~1.0, ~0.9, ~0.7, ~0.4, ~0.0}
    against that signal, so exact ground-truth rankings are non-trivial.
    """
    vocab = Vocabulary(seed)
    rng = vocab.rng
    lake = generate_corpus(
        CorpusConfig(name=f"{name}_bg", num_tables=distractor_tables, seed=seed + 1)
    )
    queries: list[CorrelationQuery] = []

    for query_index in range(num_queries):
        key_is_numeric = key_regime == "mixed" and query_index % 2 == 1
        if key_is_numeric:
            entities = [10_000 + query_index * 1_000 + i for i in range(num_entities)]
        else:
            entities = vocab.synthetic_pool(num_entities, syllables=3)
        signal = {entity: rng.gauss(0.0, 1.0) for entity in entities}

        query_keys = vocab.shuffled(entities)[: rows_per_table]
        query_targets = tuple(
            round(signal[key] + rng.gauss(0.0, 0.05), 6) for key in query_keys
        )
        queries.append(
            CorrelationQuery(
                name=f"{name}_q{query_index}",
                keys=tuple(query_keys),
                targets=query_targets,
                key_is_numeric=key_is_numeric,
            )
        )

        strengths = [0.02, 0.3, 0.6, 0.95, 2.5]
        for table_index in range(tables_per_query):
            noise = strengths[table_index % len(strengths)]
            sign = -1.0 if table_index % 2 else 1.0
            keys = vocab.shuffled(entities)[: rows_per_table]
            rows = []
            for key in keys:
                correlated = sign * signal[key] + rng.gauss(0.0, noise)
                independent = rng.gauss(0.0, 1.0)
                rows.append((key, round(correlated, 6), round(independent, 6)))
            lake.add(
                Table(
                    f"{name}_q{query_index}_t{table_index}",
                    ["entity", "metric_a", "metric_b"],
                    rows,
                )
            )

    return CorrelationBenchmark(lake=lake, queries=queries)
