"""The semantic discovery extension (paper §X future work): in-DB column
embeddings, exact-scan retrieval, and SS-seeker composition with exact
operators."""

import pytest

from repro import Blend, Combiners, Plan, Seekers
from repro.core.semantic import SemanticIndex, SemanticSeeker
from repro.engine import Database
from repro.errors import SeekerError
from repro.index import build_alltables
from repro.lake import DataLake, Table


@pytest.fixture(scope="module")
def lake():
    lake = DataLake("sem")
    lake.add(Table("cities_eu", ["city"], [("berlin",), ("hamburg",), ("munich",), ("cologne",)]))
    lake.add(Table("cities_us", ["city"], [("boston",), ("chicago",), ("seattle",), ("austin",)]))
    lake.add(Table("customers", ["customer_id"], [("customer_1",), ("customer_2",), ("customer_3",)]))
    lake.add(Table("clients", ["client"], [("customer_4",), ("customer_5",), ("customer_6",)]))
    lake.add(Table("numbers", ["n"], [(1,), (2,), (3,)]))
    return lake


@pytest.fixture(scope="module")
def blend(lake):
    deployment = Blend(lake, backend="column")
    deployment.build_index()
    deployment.enable_semantic()
    return deployment


def _indexed(lake: DataLake) -> Database:
    """A database holding *lake*'s ``AllTables`` -- what SemanticIndex reads."""
    db = Database(backend="column")
    build_alltables(lake, db)
    return db


class TestSemanticIndex:
    def test_indexes_nonempty_columns(self, lake):
        index = SemanticIndex(_indexed(lake))
        assert index.num_columns == 5

    def test_persist_round_trip(self, lake):
        db = _indexed(lake)
        index = SemanticIndex(db)
        written = index.persist(db)
        assert written > 0
        assert db.has_table("AllVectors")
        loaded = SemanticIndex.load(db)
        assert loaded.num_columns == index.num_columns
        # The reloaded index must rank the same best column.
        from repro.baselines.embeddings import embed_values

        query = embed_values(["berlin", "hamburg"])
        original = index.search_columns(query, k=1)[0][0]
        reloaded = loaded.search_columns(query, k=1)[0][0]
        assert original == reloaded

    def test_storage_positive(self, lake):
        assert SemanticIndex(_indexed(lake)).storage_bytes() > 0


class TestSemanticSeeker:
    def test_exact_vocabulary_match_ranks_first(self, blend, lake):
        result = blend.discover(["berlin", "hamburg", "munich"], "semantic", k=3).output
        assert result.table_ids()[0] == lake.id_of("cities_eu")

    def test_morphological_similarity(self, blend, lake):
        """No token overlap, but 'customer_4..6' should land near
        'customer_1..3' via trigram features -- the semantic-ish part."""
        result = blend.discover(["customer_7", "customer_8"], "semantic", k=2).output
        top2 = set(result.table_ids())
        assert lake.id_of("customers") in top2
        assert lake.id_of("clients") in top2

    def test_requires_enabled_extension(self, lake):
        plain = Blend(lake, backend="column")
        plain.build_index()
        with pytest.raises(SeekerError, match="enable_semantic"):
            plain.discover(["berlin"], "semantic", k=2).output

    def test_empty_values_rejected(self):
        with pytest.raises(SeekerError):
            SemanticSeeker([])

    def test_sql_is_explicitly_unsupported(self):
        with pytest.raises(SeekerError):
            SemanticSeeker(["x"]).sql()

    def test_scores_are_descending_similarities(self, blend):
        result = blend.discover(["berlin", "hamburg"], "semantic", k=5).output
        scores = [hit.score for hit in result]
        assert scores == sorted(scores, reverse=True)
        assert all(score <= 1.0 + 1e-9 for score in scores)


class TestComposition:
    def test_intersect_with_exact_seeker(self, blend, lake):
        """Semantic AND syntactic: composable in one plan."""
        plan = Plan()
        plan.add("ss", SemanticSeeker(["berlin", "hamburg"], k=5))
        plan.add("sc", Seekers.SC(["berlin", "hamburg"], k=5))
        plan.add("i", Combiners.Intersect(k=5), ["ss", "sc"])
        run = blend.run(plan)
        assert run.output.table_ids() == [lake.id_of("cities_eu")]

    def test_rewrite_post_filters_results(self, blend, lake):
        from repro.core.seekers import Rewrite

        seeker = SemanticSeeker(["berlin", "hamburg"], k=5)
        context = blend.context()
        full = seeker.execute(context)
        target = lake.id_of("cities_eu")
        kept = seeker.execute(context, Rewrite(mode="intersect", table_ids=(target,)))
        assert kept.table_ids() == [target]
        dropped = seeker.execute(context, Rewrite(mode="difference", table_ids=(target,)))
        assert target not in dropped.table_ids()
        # Post-filtering preserves relative order of surviving tables.
        surviving = [t for t in full.table_ids() if t != target]
        assert dropped.table_ids() == surviving[:5]

    def test_ss_shares_sc_rule_tier(self):
        from repro.core.seekers import SEEKER_RULE_RANK

        assert SEEKER_RULE_RANK["SS"] == SEEKER_RULE_RANK["SC"]
