"""The brute-force oracles against a hand-built three-table lake, and the
tie-robust top-k check."""

from repro.lake.table import Table

from blendbench.oracle import LakeOracle, answers_digest, check_topk

TABLES = [
    (0, Table("people", ["name", "city", "age"], [
        ("Ann", "Berlin", 30),
        ("Bob", "Paris", 41),
        ("Cy", "Berlin", 30),
    ])),
    (1, Table("cities", ["city", "country"], [
        ("berlin", "Germany"),
        ("paris", "France"),
        ("rome", "Italy"),
    ])),
    (4, Table("pairs", ["a", "b", "c"], [
        ("paris", "berlin", "x"),
        ("berlin", "berlin", "y"),
        (None, "rome", "ann"),
    ])),
]


def oracle():
    return LakeOracle(TABLES)


def test_keyword_counts_distinct_tokens_anywhere_in_the_table():
    scores = oracle().keyword_scores(["Berlin", "berlin", "ANN", "rome", "nowhere", None])
    assert scores == {0: 2.0, 1: 2.0, 4: 3.0}


def test_join_takes_the_best_single_column():
    scores = oracle().join_scores(["berlin", "paris", "rome", "ann"])
    # people.city has 2, cities.city has 3, pairs.b has 2 (berlin, rome)
    assert scores == {0: 2.0, 1: 3.0, 4: 2.0}
    assert oracle().join_scores([30, "30"]) == {0: 1.0}


def test_multi_column_needs_all_tokens_in_distinct_cells_of_one_row():
    lake = oracle()
    assert lake.multi_column_scores([("berlin", "germany"), ("paris", "france")]) == {1: 2.0}
    # order within the row does not matter; other rows' values do not help
    assert lake.multi_column_scores([("berlin", "paris")]) == {4: 1.0}
    assert lake.multi_column_scores([("ann", "paris")]) == {}
    # a repeated token needs as many cells as repeats
    assert lake.multi_column_scores([("berlin", "berlin")]) == {4: 1.0}
    # rows count once however many tuples they match; null tuples are skipped
    assert lake.multi_column_scores([("ann", 30), ("ann", "berlin"), (None, "x")]) == {0: 1.0}


def test_check_topk_accepts_any_tie_order_and_nothing_else():
    scores = {1: 3.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 0.0}
    assert check_topk([(1, 3.0), (2, 2.0)], scores, 2) is None
    assert check_topk([(1, 3.0), (3, 2.0)], scores, 2) is None  # other side of the tie
    assert check_topk([(1, 3.0), (3, 2.0), (2, 2.0), (4, 1.0)], scores, 10) is None
    assert "expected 2" in check_topk([(1, 3.0)], scores, 2)
    assert "oracle says" in check_topk([(1, 3.0), (2, 5.0)], scores, 2)
    assert "oracle says" in check_topk([(1, 3.0), (5, 0.0)], scores, 2)
    assert "out of order" in check_topk([(2, 2.0), (1, 3.0)], scores, 2)
    assert "omitted" in check_topk([(1, 3.0), (4, 1.0)], scores, 2)
    assert "twice" in check_topk([(1, 3.0), (1, 3.0)], scores, 2)
    assert check_topk([], {7: 0.0}, 5) is None


def test_digest_is_order_sensitive_and_rounds_scores():
    base = [[(1, 0.5), (2, 0.25)], [(3, 1.0)]]
    assert answers_digest(base) == answers_digest([[(1, 0.5 + 1e-12), (2, 0.25)], [(3, 1.0)]])
    assert answers_digest(base) != answers_digest([[(2, 0.25), (1, 0.5)], [(3, 1.0)]])
    assert answers_digest(base) != answers_digest(list(reversed(base)))
