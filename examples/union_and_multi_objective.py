"""Union search and the full multi-objective plan (paper §VII-A, Fig. 4).

Union search composes one SC seeker per query column with a Counter
combiner; the multi-objective plan (Listing 4) additionally bundles
keyword search, data imputation, and correlation discovery under a final
Union combiner.

    $ python examples/union_and_multi_objective.py
"""

from repro import Blend
from repro.core import multi_objective_plan, union_search_plan
from repro.lake.generators import make_union_benchmark


def main() -> None:
    bench = make_union_benchmark(
        num_seeds=5, partitions_per_seed=4, rows_per_seed=60,
        distractor_tables=25, seed=29,
    )
    blend = Blend(bench.lake, backend="column")
    blend.build_index()

    # --- Union search -----------------------------------------------------
    query_name = bench.queries[0]
    query_table = bench.lake.by_name(query_name)
    print(f"union search for {query_name!r} "
          f"({query_table.num_columns} columns, {query_table.num_rows} rows)")

    plan = union_search_plan(query_table, k=6, per_column_k=50)
    print("plan:", plan)
    result = blend.union_search(query_table, k=6, per_column_k=50)
    truth = bench.ground_truth(query_name)
    print("unionable tables found:")
    for hit in result:
        marker = "  <- same family (ground truth)" if hit.table_id in truth else ""
        print(f"  {bench.lake.name_of(hit.table_id)} "
              f"(matched on {hit.score:.0f} columns){marker}")

    # --- Multi-objective discovery (Listing 4) -----------------------------
    keywords = [query_table.rows[0][0], query_table.rows[1][0]]
    examples = query_table.head(20, name="mo_examples")
    numeric_columns = [
        column for column, is_num in zip(examples.columns, examples.numeric_columns())
        if is_num
    ]
    target_column = numeric_columns[0]
    join_key_column = examples.columns[0]

    plan = multi_objective_plan(
        keywords=keywords,
        examples=examples,
        join_key_column=join_key_column,
        target_column=target_column,
        queries=[row[0] for row in query_table.rows],
        k=5,
    )
    run = blend.run(plan)
    print(f"\nmulti-objective plan executed {len(run.order)} operators:")
    print("  " + " -> ".join(run.order))
    print("aggregated result (rows + columns + imputation + correlation):")
    for hit in run.output.top(8):
        print(f"  {bench.lake.name_of(hit.table_id)}  score={hit.score:.1f}")


if __name__ == "__main__":
    main()
