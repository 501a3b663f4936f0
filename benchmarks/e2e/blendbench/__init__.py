"""The end-to-end benchmark of the BLEND reproduction.

Six workloads drive the system through its public facade only, check
every answer, and report end-to-end metrics; a traced run repeats the
workload under an outside-in span recorder and reports per-layer rows.
``benchmarks/e2e/README.md`` records why each workload and metric exists.
"""

WORKLOADS = (
    "value_seek",
    "mc_seek",
    "composite",
    "serve_steady",
    "serve_churn",
    "ingest",
)
