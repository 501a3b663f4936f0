"""Serve a lake over HTTP: concurrent clients, batching stats, hot-swap.

Starts a :class:`repro.serving.BlendServer` on an ephemeral port, fires
a burst of concurrent discovery queries at it (watch ``batch_size`` in
the responses: requests that arrived together were answered by ONE index
pass), prints the serving metrics, then hot-swaps in a grown lake under
load -- the generation ticks over with zero failed requests:

    $ python examples/serve_lake.py
"""

import json
import random
import threading
import urllib.request

from repro import Blend, DataLake, Table
from repro.serving import BlendServer

CITIES = ["berlin", "paris", "rome", "madrid", "lisbon", "vienna", "oslo", "cairo"]
COUNTRIES = [
    "germany", "france", "italy", "spain",
    "portugal", "austria", "norway", "egypt",
]


def build_lake(name: str, tables: int) -> DataLake:
    rng = random.Random(7)
    lake = DataLake(name)
    for t in range(tables):
        rows = []
        for _ in range(40):
            i = rng.randrange(len(CITIES))
            rows.append([CITIES[i], COUNTRIES[i], rng.randint(1, 99)])
        lake.add(Table(f"t{t}", ["city", "country", "metric"], rows))
    return lake


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, json.dumps(payload).encode(), {"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def get(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.load(response)


def main() -> None:
    blend = Blend(build_lake("served", tables=12), backend="column")
    blend.build_index()

    with BlendServer(blend, workers=2, max_batch=32).start() as server:
        print(f"serving on {server.url}  (generation {get(server.url + '/health')['generation']})\n")

        # A concurrent burst: same-modality requests that queue while the
        # workers are busy share a single index pass.
        queries = [
            {"modality": "sc", "values": random.Random(i).sample(CITIES, 3), "k": 5}
            for i in range(16)
        ] + [
            {"modality": "kw", "values": ["berlin", "egypt"], "k": 5},
            {"modality": "mc", "tuples": [["rome", "italy"], ["oslo", "norway"]], "k": 5},
        ]
        answers = [None] * len(queries)

        def client(i: int) -> None:
            answers[i] = post(server.url + "/query", queries[i])

        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(queries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        sizes = sorted({a["batch_size"] for a in answers}, reverse=True)
        print(f"burst of {len(queries)} concurrent queries answered; "
              f"batch sizes seen: {sizes}")
        top = answers[0]["results"][:3]
        print(f"first SC query top hits: {top}\n")

        # Hot-swap: index a grown lake beside the served one, then flip.
        # In-flight requests drain on the old generation; new arrivals
        # land on the new one. /swap does the same from a saved snapshot.
        grown = Blend(build_lake("served-v2", tables=16), backend="column")
        grown.build_index()
        report = server.swap(grown)
        print(f"hot-swapped generation {report['old_generation']} -> "
              f"{report['new_generation']} ({report['drained']} drained, "
              f"{report['seconds'] * 1000:.1f}ms)")
        after = post(server.url + "/query", queries[0])
        print(f"post-swap query served by generation {after['generation']}\n")

        stats = get(server.url + "/stats")
        latency = stats["latency_ms"]
        print("serving stats:")
        print(f"  completed: {stats['completed']}  coalesced: {stats['coalesced']}  "
              f"swaps: {stats['swaps']}")
        print(f"  queries/s: {stats['queries_per_sec']:.1f}  "
              f"p50: {latency['p50']:.2f}ms  p99: {latency['p99']:.2f}ms")
        print(f"  batch-size histogram: {stats['batch_size_histogram']}")
        print(f"  plan cache: {stats['plan_cache']}")


if __name__ == "__main__":
    main()
