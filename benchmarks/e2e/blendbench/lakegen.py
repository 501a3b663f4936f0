"""Seeded input generation: one composed lake plus every workload's queries.

The lake is composed from the repo's own Table-II style generators so
each modality has planted ground truth: a join corpus (SC/KW), two
multi-column benchmarks (aligned + mis-paired tables for MC, key widths 2
and 3), a correlation benchmark (C), a union benchmark (union plans) and
plain distractors. The program under test only ever receives the tables
and queries produced here; everything is a pure function of ``seed``
(sets of strings are always sorted before use -- string hashing is
randomised per process).

``scale=1.0`` is the size the committed numbers were taken at; the tests
and ``--smoke`` use a small fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.lake.datalake import DataLake
from repro.lake.generators import (
    CorpusConfig,
    generate_corpus,
    make_correlation_benchmark,
    make_join_benchmark,
    make_multicolumn_benchmark,
    make_union_benchmark,
)
from repro.lake.table import Table, normalize_cell

QUERY_SIZES = (4, 8, 16, 32, 64)
MC_SIZES = (8, 32, 128)
MC_VARIANTS = 5  # distinct sub-queries per (family, size)
GHOST_SHARE = 0.10  # absent tuples mixed into every MC query
K = 10


@dataclass
class Inputs:
    """Everything one run feeds the program, derived from one seed."""

    seed: int
    scale: float
    lake: DataLake
    cells: int
    vocabulary: list[str]  # string tokens, most frequent first
    kw: list[list[str]] = field(default_factory=list)
    sc: list[list[str]] = field(default_factory=list)
    corr: list[tuple[tuple, tuple]] = field(default_factory=list)
    mc: list[list[tuple]] = field(default_factory=list)
    mc_families: dict[int, list[list[tuple]]] = field(default_factory=dict)  # width -> base tuples
    # per correlation signal: (entity, metric_a) rows of its strongest planted table
    corr_planted: list[list[tuple]] = field(default_factory=list)
    union_tables: list[Table] = field(default_factory=list)


def _scaled(count: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(count * scale)))


def compose_lake(seed: int, scale: float = 1.0) -> Inputs:
    """The lake and the query pools of every workload for *seed*."""
    rows_per_mc_query = 128 if scale >= 0.5 else 32
    parts = []
    join = make_join_benchmark(
        num_tables=_scaled(130, scale, 6),
        query_sizes=(),
        max_rows=260 if scale >= 0.5 else 60,
        seed=seed,
        name="e2e_join",
    )
    parts.append(join.lake)
    mc_benches = {}
    for offset, width in ((1, 2), (2, 3)):
        bench = make_multicolumn_benchmark(
            num_queries=_scaled(10, scale),
            key_width=width,
            rows_per_query=rows_per_mc_query,
            aligned_tables_per_query=4,
            misaligned_tables_per_query=2,  # a third of the planted candidates mis-paired
            distractor_tables=0,
            seed=seed + offset,
            name=f"e2e_mc{width}",
        )
        mc_benches[width] = bench
        parts.append(bench.lake)
    corr = make_correlation_benchmark(
        num_queries=_scaled(16, scale),
        distractor_tables=0,
        key_regime="mixed",
        seed=seed + 3,
        name="e2e_corr",
    )
    parts.append(corr.lake)
    union = make_union_benchmark(
        num_seeds=_scaled(8, scale),
        rows_per_seed=80,
        distractor_tables=0,
        seed=seed + 4,
        name="e2e_union",
    )
    parts.append(union.lake)
    parts.append(
        generate_corpus(
            CorpusConfig(
                name="e2e_bg",
                num_tables=_scaled(60, scale),
                min_rows=20,
                max_rows=200 if scale >= 0.5 else 40,
                seed=seed + 5,
            )
        )
    )

    lake = DataLake("e2e")
    for part in parts:
        for table in part:
            lake.add(table)
    cells = sum(table.num_rows * table.num_columns for table in lake)

    inputs = Inputs(
        seed=seed, scale=scale, lake=lake, cells=cells, vocabulary=_string_vocabulary(lake)
    )
    rng = random.Random(seed * 7919 + 17)
    inputs.kw = _value_queries(inputs, rng, _scaled(600, scale, 12), per_table=True)
    inputs.sc = _value_queries(inputs, rng, _scaled(600, scale, 12), per_table=False)
    inputs.corr = _correlation_queries(corr, rng, _scaled(200, scale, 6))
    for width, bench in mc_benches.items():
        inputs.mc_families[width] = [list(query.table.rows) for query in bench.queries]
    inputs.mc = _mc_queries(inputs.mc_families, rng)
    for index in range(len(corr.queries)):
        planted = lake.by_name(f"e2e_corr_q{index}_t0")
        inputs.corr_planted.append([(row[0], row[1]) for row in planted.rows[:12]])
    inputs.union_tables = [union.lake.by_name(name) for name in union.queries]
    return inputs


def _string_vocabulary(lake: DataLake) -> list[str]:
    """Distinct string-cell tokens, most frequent first (ties by token)."""
    frequency: dict[str, int] = {}
    for table in lake:
        for row in table.rows:
            for value in row:
                if isinstance(value, str):
                    token = normalize_cell(value)
                    if token is not None:
                        frequency[token] = frequency.get(token, 0) + 1
    return sorted(frequency, key=lambda token: (-frequency[token], token))


def zipf_index(rng: random.Random, n: int) -> int:
    """A rank in ``[0, n)`` with probability ~ 1/rank (log-uniform)."""
    return min(n - 1, int(n ** rng.random()) - 1)


def _value_queries(
    inputs: Inputs, rng: random.Random, count: int, per_table: bool
) -> list[list[str]]:
    """Distinct value-list queries of 4-64 tokens. Two in three start
    from one lake table (KW) or one lake column (SC), so real overlaps
    exist; all are topped up by zipf draws over the lake vocabulary, so
    hot tokens with long posting lists recur across queries."""
    vocabulary = inputs.vocabulary
    tables = list(inputs.lake)
    seen: set[tuple[str, ...]] = set()
    queries: list[list[str]] = []
    while len(queries) < count:
        size = rng.choice(QUERY_SIZES)
        tokens: set[str] = set()
        if rng.random() < 0.67:
            table = rng.choice(tables)
            if per_table:
                source = [v for row in table.rows for v in row if isinstance(v, str)]
            else:
                position = rng.randrange(table.num_columns)
                source = [row[position] for row in table.rows if isinstance(row[position], str)]
            pool = sorted({t for t in map(normalize_cell, source) if t is not None})
            tokens.update(rng.sample(pool, min(len(pool), max(1, size // 2))))
        guard = 0
        while len(tokens) < size and guard < 20 * size:
            tokens.add(vocabulary[zipf_index(rng, len(vocabulary))])
            guard += 1
        key = tuple(sorted(tokens))
        if key and key not in seen:
            seen.add(key)
            queries.append(list(key))
    return queries


def _correlation_queries(corr, rng: random.Random, count: int) -> list[tuple[tuple, tuple]]:
    """Distinct (keys, targets) pairs: key subsets of the planted signals."""
    seen: set[tuple] = set()
    queries: list[tuple[tuple, tuple]] = []
    while len(queries) < count:
        source_index = rng.randrange(len(corr.queries))
        source = corr.queries[source_index]
        size = rng.randint(30, len(source.keys))
        picks = tuple(sorted(rng.sample(range(len(source.keys)), size)))
        if (source_index, picks) in seen:
            continue
        seen.add((source_index, picks))
        queries.append(
            (tuple(source.keys[i] for i in picks), tuple(source.targets[i] for i in picks))
        )
    return queries


def _mc_queries(families: dict[int, list[list[tuple]]], rng: random.Random) -> list[list[tuple]]:
    """Distinct MC queries of 8/32/128 tuples: planted tuples of one
    family plus ~10 % ghost tuples that occur nowhere in the lake."""
    queries: list[list[tuple]] = []
    for width in sorted(families):
        for family_index, base in enumerate(families[width]):
            for size in MC_SIZES:
                size = min(size, len(base))
                ghosts = max(1, round(GHOST_SHARE * size))
                for variant in range(MC_VARIANTS):
                    rows = rng.sample(base, size - ghosts)
                    tag = f"ghost{width}x{family_index}x{size}x{variant}"
                    rows += [
                        tuple(f"{tag}x{g}x{c}" for c in range(width)) for g in range(ghosts)
                    ]
                    rng.shuffle(rows)
                    queries.append(rows)
    return queries


# -- serving payloads and churn tables --------------------------------------------


_MIX_BLOCK = ["sc"] * 10 + ["kw"] * 7 + ["mc"] * 3  # 50 % / 35 % / 15 %
_HOT_RANKS = ["sc", "kw", "sc", "kw", "sc", "mc", "sc", "kw", "sc", "kw"]  # repeated five times


def serve_payloads(inputs: Inputs, rng: random.Random, count: int) -> list[dict[str, Any]]:
    """A JSON-shaped request stream: 50 % SC / 35 % KW / 15 % MC; one in
    five requests re-issues a query of a 50-query hot set (zipf), the
    rest walk the distinct query pools.

    The mix is stratified, not rolled per request: every block of twenty
    fresh requests holds exactly ten SC, seven KW and three MC in a
    shuffled order, MC requests rotate through the 8 / 32 / 128-tuple
    sizes, and the hot set's modality is fixed per popularity rank. An
    MC-128 request costs twenty keyword probes, so letting their number
    (or the rank of one in the hot set) float with the seed moved the
    whole stream's latency by a quarter."""
    by_size: dict[int, list[list[tuple]]] = {}
    for query in inputs.mc:
        by_size.setdefault(len(query), []).append(query)
    sizes = sorted(by_size)
    cursors = {"sc": rng.randrange(len(inputs.sc)), "kw": rng.randrange(len(inputs.kw)), "mc": 0}

    def fresh(modality: str) -> dict[str, Any]:
        cursors[modality] += 1
        position = cursors[modality]
        if modality == "mc":
            pool = by_size[sizes[position % len(sizes)]]
            query = pool[(position // len(sizes)) % len(pool)]
            return {"modality": "mc", "tuples": [list(row) for row in query], "k": K}
        pool = inputs.sc if modality == "sc" else inputs.kw
        return {"modality": modality, "values": list(pool[position % len(pool)]), "k": K}

    hot = [fresh(_HOT_RANKS[rank % len(_HOT_RANKS)]) for rank in range(50)]
    payloads: list[dict[str, Any]] = []
    block: list[str] = []
    while len(payloads) < count:
        if rng.random() < 0.20:
            payloads.append(hot[zipf_index(rng, len(hot))])
            continue
        if not block:
            block = list(_MIX_BLOCK)
            rng.shuffle(block)
        payloads.append(fresh(block.pop()))
    return payloads


def churn_table(index: int, rows: int = 24) -> Table:
    """A streamed-in table over a vocabulary disjoint from the static
    lake, so static reads keep a static oracle while tables churn."""
    return Table(
        f"churn_{index}",
        ["churn_key", "churn_tag", "n"],
        [(f"churn{index}x{j}", f"churntag{j % 6}", j) for j in range(rows)],
    )


def churn_probe(index: int) -> list[str]:
    """Keywords only ``churn_table(index)`` contains."""
    return [f"churn{index}x{j}" for j in range(3)]
