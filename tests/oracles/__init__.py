"""Scalar reference implementations (test oracles).

``src/`` ships one production path per job; the cell-at-a-time /
tuple-at-a-time originals those paths replaced live here, where parity
suites and the legacy micro-benches compare against them:

* :mod:`oracles.alltables_scalar` -- the seed ``AllTables`` build loop;
* :mod:`oracles.mc_scalar` -- the seed MC seeker phases;
* :mod:`oracles.value_sql` -- the SC / KW statements run as SQL;
* :mod:`oracles.hnsw_scalar` -- the seed per-pair-distance HNSW;
* :mod:`oracles.stats_scan` -- the lake-scan statistics counter.
"""
