"""Learning-based cost estimation (paper §VII-B).

For seekers of the same type, expected runtime is estimated by a linear
regression per seeker type over three features:

1. cardinality of Q (number of query tokens),
2. number of columns in Q,
3. average frequency of Q's values in the lake (for MC: the *product* of
   per-column average frequencies, because the MC SQL joins the per-column
   index hits).

Training is offline: random query columns are sampled from the lake, each
seeker is executed, and wall-clock runtimes become the regression targets
(least squares via NumPy). Prediction is part of online optimization.
Untrained models fall back to a complexity-based heuristic so the
optimizer degrades gracefully (rule ranking still applies).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...index.stats import LakeStatistics
from ...lake.datalake import DataLake
from ..seekers import (
    CorrelationSeeker,
    KeywordSeeker,
    MultiColumnSeeker,
    Seeker,
    SeekerContext,
    SingleColumnSeeker,
)


@dataclass(frozen=True)
class SeekerFeatures:
    """The cost model's input vector for one seeker instance."""

    cardinality: float
    columns: float
    average_frequency: float

    def as_row(self) -> list[float]:
        return [1.0, self.cardinality, self.columns, self.average_frequency]


def extract_features(seeker: Seeker, stats: LakeStatistics) -> SeekerFeatures:
    """Features of *seeker* against lake statistics.

    MC's frequency feature multiplies per-column averages (see module
    docstring); other seekers use the plain average over all tokens.
    """
    if isinstance(seeker, MultiColumnSeeker):
        product = 1.0
        for position in range(seeker.width):
            tokens = seeker.column_tokens(position)
            product *= max(1.0, stats.average_frequency(tokens))
        frequency = product
    else:
        frequency = stats.average_frequency(seeker.query_tokens())
    return SeekerFeatures(
        cardinality=float(seeker.query_cardinality()),
        columns=float(seeker.query_columns()),
        average_frequency=float(frequency),
    )


@dataclass
class LinearModel:
    """One per-seeker-type least-squares regression."""

    weights: np.ndarray  # shape (4,): bias, cardinality, columns, frequency

    def predict(self, features: SeekerFeatures) -> float:
        return float(np.dot(self.weights, np.array(features.as_row())))

    @classmethod
    def fit(cls, rows: list[SeekerFeatures], runtimes: list[float]) -> "LinearModel":
        if len(rows) < 2:
            raise ValueError("need at least two samples to fit a cost model")
        design = np.array([row.as_row() for row in rows], dtype=np.float64)
        target = np.array(runtimes, dtype=np.float64)
        weights, *_ = np.linalg.lstsq(design, target, rcond=None)
        return cls(weights=weights)


# Heuristic fallback multipliers mirror the apriori complexity analysis of
# §VII-B: KW ~ one scan, SC ~ one scan with a larger |Q|, C ~ three scans,
# MC ~ x scans + joins + application-level validation. SS probes the
# vector index instead of AllTables (sub-scan cost); HY runs one exact
# lane plus one SS lane and fuses.
_FALLBACK_MULTIPLIER = {"KW": 1.0, "SC": 1.0, "SS": 0.5, "C": 3.0, "HY": 2.0, "MC": 6.0}


class CostModel:
    """Per-seeker-type runtime regressions with a heuristic fallback."""

    def __init__(self, models: Optional[dict[str, LinearModel]] = None) -> None:
        self._models = dict(models or {})

    def is_trained(self) -> bool:
        return bool(self._models)

    def estimate(self, seeker: Seeker, stats: LakeStatistics) -> float:
        """Expected runtime (arbitrary units; only the ordering matters)."""
        features = extract_features(seeker, stats)
        model = self._models.get(seeker.kind)
        if model is not None:
            return model.predict(features)
        multiplier = _FALLBACK_MULTIPLIER.get(seeker.kind, 1.0)
        # Anchor the heuristic's arbitrary units to the corpus' posting
        # density (AllTables rows per distinct token): a collision-heavy
        # lake makes every probed token drag proportionally more index
        # rows into the scan. A corpus-wide factor, so same-stats
        # orderings are unchanged -- it matters when estimates are
        # compared across lakes (and keeps the derived aggregates of
        # LakeStatistics load-bearing).
        density = max(1.0, stats.average_posting_length())
        return multiplier * density * (
            features.cardinality * max(1.0, features.average_frequency)
            + features.columns
        )

    def set_model(self, kind: str, model: LinearModel) -> None:
        self._models[kind] = model

    # -- snapshots -----------------------------------------------------------------

    def snapshot_state(self) -> dict[str, list[float]]:
        """The trained regressions as plain JSON-able weights (one
        4-vector per seeker type) -- what a snapshot manifest carries so
        a loaded deployment optimizes exactly like the saved one."""
        return {
            kind: model.weights.tolist() for kind, model in sorted(self._models.items())
        }

    @classmethod
    def from_snapshot(cls, state: dict[str, list[float]]) -> "CostModel":
        return cls(
            {
                kind: LinearModel(np.asarray(weights, dtype=np.float64))
                for kind, weights in state.items()
            }
        )


TRAINING_K = 10  # the k of every sampled training query


@dataclass
class TrainingReport:
    """What offline training produced."""

    samples_per_type: dict[str, int]
    training_seconds: float


def train_cost_model(
    context: SeekerContext,
    stats: LakeStatistics,
    lake: DataLake,
    samples_per_type: int,
    seed: int,
) -> tuple[CostModel, TrainingReport]:
    """Offline training loop: sample random Qs from the lake, execute each
    seeker type (top-``TRAINING_K``), fit the regressions (paper: 1000 samples;
    ``Blend.train_optimizer`` defaults to a laptop-scale 40)."""
    rng = random.Random(seed)
    start = time.perf_counter()
    model = CostModel()
    counts: dict[str, int] = {}

    generators = {"SC": _random_sc, "KW": _random_kw, "MC": _random_mc, "C": _random_c}
    for kind, make in generators.items():
        rows: list[SeekerFeatures] = []
        runtimes: list[float] = []
        attempts = 0
        while len(rows) < samples_per_type and attempts < samples_per_type * 10:
            attempts += 1
            seeker = make(lake, rng, TRAINING_K)
            if seeker is None:
                continue
            begin = time.perf_counter()
            seeker.execute(context)
            elapsed = time.perf_counter() - begin
            rows.append(extract_features(seeker, stats))
            runtimes.append(elapsed)
        if len(rows) >= 2:
            model.set_model(kind, LinearModel.fit(rows, runtimes))
        counts[kind] = len(rows)
    return model, TrainingReport(counts, time.perf_counter() - start)


# -- random query sampling (one helper per seeker type) -----------------------


def _random_table(lake: DataLake, rng: random.Random):
    if len(lake) == 0:
        return None
    # Sample over live ids: lakes that lived through removals have holes,
    # so a plain randrange over len(lake) would miss high ids and could
    # hit dead ones. Consumes one rng draw either way (seed-stable).
    ids = lake.table_ids()
    return lake.by_id(ids[rng.randrange(len(ids))])


def _random_sc(lake: DataLake, rng: random.Random, k: int) -> Optional[Seeker]:
    table = _random_table(lake, rng)
    if table is None or table.num_rows == 0:
        return None
    position = rng.randrange(table.num_columns)
    values = [row[position] for row in table.rows if row[position] is not None]
    if len(values) < 2:
        return None
    size = rng.randint(2, min(len(values), 50))
    try:
        return SingleColumnSeeker(rng.sample(values, size), k=k)
    except Exception:
        return None


def _random_kw(lake: DataLake, rng: random.Random, k: int) -> Optional[Seeker]:
    table = _random_table(lake, rng)
    if table is None or table.num_rows == 0:
        return None
    cells = [v for _, _, v in table.iter_cells() if isinstance(v, str)]
    if len(cells) < 2:
        return None
    size = rng.randint(1, min(len(cells), 8))
    try:
        return KeywordSeeker(rng.sample(cells, size), k=k)
    except Exception:
        return None


def _random_mc(lake: DataLake, rng: random.Random, k: int) -> Optional[Seeker]:
    table = _random_table(lake, rng)
    if table is None or table.num_columns < 2 or table.num_rows < 2:
        return None
    columns = rng.sample(range(table.num_columns), 2)
    rows = [
        tuple(row[c] for c in columns)
        for row in table.rows
        if all(row[c] is not None for c in columns)
    ]
    if len(rows) < 2:
        return None
    size = rng.randint(2, min(len(rows), 10))
    try:
        return MultiColumnSeeker(rng.sample(rows, size), k=k)
    except Exception:
        return None


def _random_c(lake: DataLake, rng: random.Random, k: int) -> Optional[Seeker]:
    table = _random_table(lake, rng)
    if table is None or table.num_rows < 4 or table.num_columns < 2:
        return None
    numeric = table.numeric_columns()
    numeric_positions = [i for i, flag in enumerate(numeric) if flag]
    if not numeric_positions:
        return None
    target_position = rng.choice(numeric_positions)
    key_candidates = [i for i in range(table.num_columns) if i != target_position]
    key_position = rng.choice(key_candidates)
    keys = [row[key_position] for row in table.rows]
    targets = [row[target_position] for row in table.rows]
    try:
        return CorrelationSeeker(keys, targets, k=k, h=256)
    except Exception:
        return None
