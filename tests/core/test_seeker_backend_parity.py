"""Row-vs-column executor parity on all four seeker SQL templates.

Both storage backends interpret the same plans; the seekers add
deterministic tie-break sort keys, so rankings AND scores must agree
exactly -- with and without optimizer rewrites, and with the plan cache
warm (second round repeats every query against cached plans).

Every MC phase output is additionally cross-checked against the scalar
oracle (``tests/oracles/mc_scalar.py``) over the full
{row, column} x {scalar oracle, seeker} grid."""

import pytest
from oracles import mc_scalar

from repro.core.seekers import Rewrite, SeekerContext, Seekers
from repro.engine import Database
from repro.index import build_alltables
from repro.lake.generators import CorpusConfig, generate_corpus


@pytest.fixture(scope="module")
def lake():
    return generate_corpus(
        CorpusConfig(name="parity", num_tables=50, min_rows=15, max_rows=80, seed=31)
    )


@pytest.fixture(scope="module")
def contexts(lake):
    out = {}
    for backend in ("row", "column"):
        db = Database(backend=backend)
        build_alltables(lake, db)
        out[backend] = SeekerContext(db=db, lake=lake)
    return out


def _seekers(lake):
    table = lake.by_id(0)
    first_column = [v for v in table.column_values(table.columns[0]) if v is not None]
    built = {
        "SC": Seekers.SC(first_column[:10], k=8),
        "KW": Seekers.KW(first_column[:10], k=8),
    }
    wide_rows = [r for r in table.rows if all(v is not None for v in r[:2])]
    if len(wide_rows) >= 2 and table.num_columns >= 2:
        built["MC"] = Seekers.MC([r[:2] for r in wide_rows[:6]], k=8)
    flags = table.numeric_columns()
    if any(flags) and not all(flags):
        keys = table.column_values(table.columns[flags.index(False)])
        nums = table.column_values(table.columns[flags.index(True)])
        built["C"] = Seekers.Correlation(keys, nums, k=8, min_support=2)
    return built


@pytest.mark.parametrize("rewrite", [None, Rewrite("intersect", (0, 1, 2, 3, 4)), Rewrite("difference", (1, 2))])
def test_all_templates_rank_identically(contexts, lake, rewrite):
    seekers = _seekers(lake)
    assert {"SC", "KW"} <= set(seekers)
    for _round in range(2):  # second round runs against a warm plan cache
        for kind, seeker in seekers.items():
            results = {}
            for backend, context in contexts.items():
                ranked = seeker.execute(context, rewrite)
                results[backend] = [(hit.table_id, hit.score) for hit in ranked]
            assert results["row"] == results["column"], (kind, rewrite)


def test_plan_cache_engaged_on_both_backends(contexts, lake):
    for context in contexts.values():
        stats = context.db.plan_cache_stats()
        assert stats["hits"] > 0, "parity run should have exercised cached plans"


@pytest.mark.parametrize("rewrite", [None, Rewrite("intersect", (0, 1, 2, 3, 4, 7, 9))])
def test_mc_phases_four_way_parity(contexts, lake, rewrite):
    """Candidates, survivors, validated sets, and final rankings must
    agree across {row, column} x {scalar oracle, seeker}."""
    seeker = _seekers(lake).get("MC")
    assert seeker is not None, "parity lake must support an MC query"
    phase_outputs = {}
    rankings = {}
    for backend, context in contexts.items():
        candidates = mc_scalar.fetch_candidates(seeker, context, rewrite)
        survivors = mc_scalar.superkey_filter(seeker, candidates, context)
        validated = mc_scalar.validate(seeker, survivors, context)
        phase_outputs[(backend, "scalar")] = (
            {(t, r) for t, r, _ in candidates},
            set(survivors),
            set(validated),
        )
        rankings[(backend, "scalar")] = [
            (hit.table_id, hit.score)
            for hit in mc_scalar.execute(seeker, context, rewrite)
        ]

        t, r, s = seeker.fetch_candidate_arrays(context, rewrite)
        ft, fr = seeker.superkey_filter_batch(t, r, s, context)
        vt, vr = seeker.validate_batch(ft, fr, context)
        phase_outputs[(backend, "seeker")] = (
            set(zip(t.tolist(), r.tolist())),
            set(zip(ft.tolist(), fr.tolist())),
            set(zip(vt.tolist(), vr.tolist())),
        )
        rankings[(backend, "seeker")] = [
            (hit.table_id, hit.score) for hit in seeker.execute(context, rewrite)
        ]

    reference_phases = phase_outputs[("row", "scalar")]
    reference_ranking = rankings[("row", "scalar")]
    assert all(c for c in reference_phases), "parity query must produce candidates"
    for key, output in phase_outputs.items():
        assert output == reference_phases, key
    for key, ranking in rankings.items():
        assert ranking == reference_ranking, key
