"""Seeker behaviour on the paper's Fig. 1 example and edge cases."""

import pytest

from repro import Blend
from repro.core.seekers import (
    CorrelationSeeker,
    KeywordSeeker,
    MultiColumnSeeker,
    Rewrite,
    SingleColumnSeeker,
)
from repro.errors import SeekerError

from tests.core.conftest import DEPARTMENTS


class TestSingleColumnSeeker:
    def test_finds_department_columns(self, fig1_blend, fig1_lake):
        result = fig1_blend.discover(DEPARTMENTS, "join", k=3).output
        ids = result.table_ids()
        # T2/T3 contain all 6 departments, T1 contains 5 (no R&D).
        assert set(ids) == {0, 1, 2}
        assert ids[2] == 0  # T1 has the smallest overlap
        assert result.score_of(fig1_lake.id_of("T1")) == 5.0
        assert result.score_of(fig1_lake.id_of("T2")) == 6.0

    def test_k_truncates(self, fig1_blend):
        assert len(fig1_blend.discover(DEPARTMENTS, "join", k=1).output) == 1

    def test_no_match_returns_empty(self, fig1_blend):
        result = fig1_blend.discover(["nonexistent-token-xyz"], "join", k=5).output
        assert len(result) == 0

    def test_values_are_normalized(self, fig1_blend):
        # Case and surrounding whitespace must not matter.
        lower = fig1_blend.discover(["hr", "it"], "join", k=3).output.table_ids()
        messy = fig1_blend.discover(["  HR ", "It"], "join", k=3).output.table_ids()
        assert lower == messy

    def test_numeric_values_match_text_tokens(self, fig1_blend):
        result = fig1_blend.discover([33, 92], "join", k=3).output
        assert result.table_ids() == [0]  # only T1 has the sizes column

    def test_empty_values_rejected(self):
        with pytest.raises(SeekerError):
            SingleColumnSeeker([])
        with pytest.raises(SeekerError):
            SingleColumnSeeker([None, "", "  "])

    def test_negative_k_rejected(self):
        with pytest.raises(SeekerError):
            SingleColumnSeeker(["x"], k=-1)

    def test_rewrite_restricts_tables(self, fig1_blend):
        seeker = SingleColumnSeeker(DEPARTMENTS, k=5)
        restricted = seeker.execute(
            fig1_blend.context(), Rewrite(mode="intersect", table_ids=(0,))
        )
        assert restricted.table_ids() == [0]

    def test_difference_rewrite_excludes_tables(self, fig1_blend):
        seeker = SingleColumnSeeker(DEPARTMENTS, k=5)
        excluded = seeker.execute(
            fig1_blend.context(), Rewrite(mode="difference", table_ids=(1,))
        )
        assert 1 not in excluded.table_ids()
        assert set(excluded.table_ids()) == {0, 2}


class TestKeywordSeeker:
    def test_whole_table_overlap(self, fig1_blend):
        # "2022" and "firenze" co-occur only in T2 (different columns!).
        result = fig1_blend.discover(["2022", "Firenze"], "keyword", k=3).output
        assert result.table_ids()[0] == 1
        assert result.score_of(1) == 2.0

    def test_kw_differs_from_sc(self, fig1_blend):
        # SC needs the overlap within ONE column; KW counts table-wide.
        keywords = ["2022", "Firenze"]
        kw_score = fig1_blend.discover(keywords, "keyword", k=1).output.score_of(1)
        sc_result = fig1_blend.discover(keywords, "join", k=3).output
        assert kw_score == 2.0
        assert sc_result.score_of(1) == 1.0  # best single column has 1

    def test_empty_keywords_rejected(self):
        with pytest.raises(SeekerError):
            KeywordSeeker([])


class TestMultiColumnSeeker:
    def test_projection_lookup(self, fig1_blend):
        # ("HR", "Firenze") appears row-aligned in T2 and T3 only.
        result = fig1_blend.discover([("HR", "Firenze")], "multi_column", k=5).output
        assert set(result.table_ids()) == {1, 2}

    def test_outdated_tuple_only_in_t2(self, fig1_blend):
        result = fig1_blend.discover([("IT", "Tom Riddle")], "multi_column", k=5).output
        assert result.table_ids() == [1]

    def test_misaligned_values_rejected(self, fig1_blend):
        # "Firenze" and "IT" exist in T2/T3 but never in the same row.
        result = fig1_blend.discover([("IT", "Firenze")], "multi_column", k=5).output
        assert result.table_ids() == []

    def test_scores_count_joinable_rows(self, fig1_blend):
        result = fig1_blend.discover(
            [("HR", "Firenze"), ("Finance", "Harry Potter")], "multi_column", k=5
        ).output
        assert result.score_of(1) == 2.0
        assert result.score_of(2) == 2.0

    def test_tuples_with_nulls_skipped(self):
        seeker = MultiColumnSeeker([("a", None), ("b", "c")])
        assert seeker.tuples == [("b", "c")]

    def test_all_null_rejected(self):
        with pytest.raises(SeekerError):
            MultiColumnSeeker([("a", None), (None, "b")])

    def test_single_column_rejected(self):
        with pytest.raises(SeekerError):
            MultiColumnSeeker([("a",), ("b",)])

    def test_ragged_tuples_rejected(self):
        with pytest.raises(SeekerError):
            MultiColumnSeeker([("a", "b"), ("c", "d", "e")])

    def test_three_column_key(self, fig1_blend):
        result = fig1_blend.discover([("Firenze", "2022", "HR")], "multi_column", k=5).output
        assert result.table_ids() == [1]

    def test_phases_are_monotone(self, fig1_blend):
        """Each MC phase may only shrink the candidate set."""
        seeker = MultiColumnSeeker([("HR", "Firenze")], k=5)
        context = fig1_blend.context()
        tables, rows, keys = seeker.fetch_candidate_arrays(context)
        filtered = seeker.superkey_filter_batch(tables, rows, keys, context)
        validated = seeker.validate_batch(*filtered, context)
        assert len(tables) >= len(filtered[0]) >= len(validated[0])
        assert len(validated[0]) == 2  # one row in each of T2, T3


class TestCorrelationSeeker:
    def test_finds_correlating_numeric_column(self, fig1_blend):
        # T1.size correlates with this target by construction.
        keys = ["HR", "Marketing", "Finance", "IT", "Sales"]
        targets = [33, 28, 31, 92, 80]
        result = fig1_blend.discover((keys, targets), "correlation", k=3).output
        assert result.table_ids()[0] == 0
        assert result.score_of(0) == pytest.approx(1.0)

    def test_key_target_length_mismatch(self):
        with pytest.raises(SeekerError):
            CorrelationSeeker(["a", "b"], [1.0])

    def test_non_numeric_targets_rejected(self):
        with pytest.raises(SeekerError):
            CorrelationSeeker(["a", "b"], ["x", "y"])

    def test_bad_h_rejected(self):
        with pytest.raises(SeekerError):
            CorrelationSeeker(["a", "b"], [1, 2], h=0)

    def test_key_split_matches_target_mean(self):
        seeker = CorrelationSeeker(["a", "b", "c", "d"], [1, 2, 9, 10], k=3)
        assert set(seeker.k0) == {"a", "b"}
        assert set(seeker.k1) == {"c", "d"}

    def test_numeric_join_keys_supported(self, fig1_blend):
        # Sizes as join keys against the year column: no crash, and keys
        # are matched as tokens (the advantage over the QCR baseline).
        result = fig1_blend.discover(
            ([31, 28, 33, 92, 80], [1, 2, 3, 4, 5]), "correlation", k=3
        ).output
        assert isinstance(result.table_ids(), list)


class TestSeekerSqlShape:
    """The generated SQL must match the paper's listings structurally."""

    def test_sc_sql_matches_listing_1(self):
        sql = SingleColumnSeeker(["x"], k=10).sql()
        assert "GROUP BY TableId, ColumnId" in sql
        assert "COUNT(DISTINCT CellValue)" in sql
        assert "LIMIT" in sql

    def test_kw_sql_drops_columnid(self):
        sql = KeywordSeeker(["x"], k=10).sql()
        assert "GROUP BY TableId " in sql
        assert "ColumnId" not in sql

    def test_mc_sql_joins_on_table_and_row(self):
        sql = MultiColumnSeeker([("a", "b"), ("c", "d")], k=10).sql()
        assert "INNER JOIN" in sql
        assert "Q0.TableId = Q1.TableId" in sql
        assert "Q0.RowId = Q1.RowId" in sql

    def test_mc_sql_width_scales(self):
        sql = MultiColumnSeeker([("a", "b", "c")], k=10).sql()
        assert sql.count("INNER JOIN") == 2

    def test_correlation_sql_matches_listing_3(self):
        sql = CorrelationSeeker(["a", "b", "c"], [1, 2, 3], k=10).sql()
        assert "RowId < :h" in sql
        assert "Quadrant IS NOT NULL" in sql
        assert "2.0 * SUM" in sql
        assert "ABS(" in sql

    def test_rewrite_placeholder_injection(self):
        seeker = SingleColumnSeeker(["x"], k=10)
        plain = seeker.sql()
        rewritten = seeker.sql(Rewrite(mode="intersect", table_ids=(1, 2)))
        assert "TableId IN (:__rewrite_ids)" in rewritten
        assert "TableId IN (:__rewrite_ids)" not in plain

    def test_difference_rewrite_uses_not_in(self):
        seeker = KeywordSeeker(["x"], k=10)
        rewritten = seeker.sql(Rewrite(mode="difference", table_ids=(1,)))
        assert "TableId NOT IN (:__rewrite_ids)" in rewritten


class TestBackendConsistency:
    """Seekers must rank identically on row and column stores."""

    def test_all_seekers_agree_across_backends(self, fig1_lake):
        results = {}
        for backend in ("row", "column"):
            blend = Blend(fig1_lake, backend=backend)
            blend.build_index()
            results[backend] = (
                blend.discover(DEPARTMENTS, "join", k=3).output.table_ids(),
                blend.discover(["2022", "Firenze"], "keyword", k=3).output.table_ids(),
                blend.discover([("HR", "Firenze")], "multi_column", k=3).output.table_ids(),
                blend.discover(
                    (["HR", "Marketing", "Finance", "IT", "Sales"], [33, 28, 31, 92, 80]),
                    "correlation",
                    k=3,
                ).output.table_ids(),
            )
        assert results["row"] == results["column"]
