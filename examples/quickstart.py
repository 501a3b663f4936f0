"""Quickstart: index a small lake and run every seeker + a composed plan.

This walks through the paper's Fig. 1 scenario end to end:

    $ python examples/quickstart.py
"""

from repro import Blend, Combiners, DataLake, Plan, Seekers, Table


def build_fig1_lake() -> DataLake:
    """The paper's running example: department tables T1-T3."""
    lake = DataLake("fig1")
    lake.add(Table("T1_sizes", ["team", "size"], [
        ("Finance", 31), ("Marketing", 28), ("HR", 33), ("IT", 92), ("Sales", 80),
    ]))
    lake.add(Table("T2_leads_2022", ["lead", "year", "team"], [
        ("Tom Riddle", 2022, "IT"), ("Draco Malfoy", 2022, "Marketing"),
        ("Harry Potter", 2022, "Finance"), ("Cho Chang", 2022, "R&D"),
        ("Luna Lovegood", 2022, "Sales"), ("Firenze", 2022, "HR"),
    ]))
    lake.add(Table("T3_leads_2024", ["lead", "year", "team"], [
        ("Ronald Weasley", 2024, "IT"), ("Draco Malfoy", 2024, "Marketing"),
        ("Harry Potter", 2024, "Finance"), ("Cho Chang", 2024, "R&D"),
        ("Luna Lovegood", 2024, "Sales"), ("Firenze", 2024, "HR"),
    ]))
    return lake


def main() -> None:
    lake = build_fig1_lake()

    # Offline phase: build the unified AllTables index (one relation,
    # two in-database indexes) plus the optimizer's lake statistics.
    blend = Blend(lake, backend="column")
    report = blend.build_index()
    print(f"indexed {report.num_tables} tables -> {report.num_index_rows} index rows\n")

    def names(result):
        return [lake.name_of(t) for t in result.table_ids()]

    # Single-column join search (Listing 1).
    departments = ["HR", "Marketing", "Finance", "IT", "R&D", "Sales"]
    print("SC  join search on departments:", names(blend.discover(departments, "join", k=3).output))

    # Keyword search: values may match anywhere in a table.
    print("KW  keyword search [2022, firenze]:", names(blend.discover(["2022", "Firenze"], "keyword", k=3).output))

    # Multi-column join search (Listing 2): row-aligned tuples.
    print("MC  tables containing ('HR','Firenze') in one row:",
          names(blend.discover([("HR", "Firenze")], "multi_column", k=3).output))

    # Correlation search (Listing 3): which table has a column
    # correlating with our target, joined on department names?
    result = blend.run(Plan().add("c", Seekers.Correlation(
        keys=["HR", "Marketing", "Finance", "IT", "Sales"],
        targets=[33, 28, 31, 92, 80],
        k=3, min_support=3,
    ))).output
    print("C   correlation search:", names(result))

    # The paper's Example 1, as a composed plan: tables containing the
    # (department, head) examples and the department list, but NOT the
    # outdated ("IT", "Tom Riddle") projection.
    plan = Plan()
    plan.add("P_examples", Seekers.MC([("HR", "Firenze")]), k=10)
    plan.add("N_examples", Seekers.MC([("IT", "Tom Riddle")]), k=10)
    plan.add("exclude", Combiners.Difference(k=10), ["P_examples", "N_examples"])
    plan.add("dep", Seekers.SC(departments), k=10)
    plan.add("intersect", Combiners.Intersect(k=10), ["exclude", "dep"])

    run = blend.run(plan)
    print("\nfind_dep_heads plan (Fig. 2a):")
    print("  optimized execution order:", " -> ".join(run.order))
    print("  answer:", names(run.output), " (expected: T3, the up-to-date table)")


if __name__ == "__main__":
    main()
