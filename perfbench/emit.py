"""Seeded input emitter for the end-to-end benchmark.

Writes the files a workload's client reads, and nothing else reaches the
program under test: ``sql-small`` gets a stats-catalog JSON and a file of
SQL texts, ``multistart-sa-2w`` gets a query corpus written with
``repro.save_benchmark``.  Every query comes from the paper's §5
generator (``repro.generate_query``) over all ten benchmark specs.

Each workload's query list is a fixed sequence of *slots*.  A slot fixes
the query's shape (spec, size, cross-product or folded-predicate
variant); only the random draws inside that shape come from ``--seed``.
So every seed asks for the same amount and kind of work, and the
run-to-run spread measures the program, not a lucky mix of easy inputs.

A quarter of the slots are *anchors*: the workload's largest queries,
drawn from :data:`ANCHOR_SEED` instead of ``--seed``.  Time per query
grows steeply with size, so the few largest queries carry much of a
run's time and set its tail percentiles; fixed, they take that input
noise out of the comparison, and the seeds still vary the other three
quarters.  The anchors also carry ``plan_cost_gmean``: plan costs span
ten or more orders of magnitude between random queries, so a geometric
mean over seeded queries moves by whole factors from seed to seed, while
over the anchors it is the same on every run and moves only when a
change alters which plans are found.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: Seed of the anchor slots: fixed, so the largest queries and
#: ``plan_cost_gmean`` are the same on every run and every ``--seed``.
ANCHOR_SEED = 20260101

#: Seed of the warm-up inputs, which are never timed.
WARMUP_SEED = 7

#: One slot in this many is an anchor (the largest ones).
ANCHOR_SHARE = 4

#: Work per second of ``--seconds``: the query count is fixed by the
#: seconds asked for, never by how fast the machine runs, so a faster
#: program finishes early and ``--seconds`` is nominal.  On a 2-core x86
#: box with Python 3.11, whose speed drifts, ten-run medians ranged over
#: 416-489 sql-small queries/s and 0.68-0.75 s per multistart-sa-2w
#: query.  The latter is rounded up: a traced run plans each query twice
#: more (traced, and its workers=1 twin), about 112 s at 30 s asked, and
#: must end in the run's time limit even when the machine is slow.
SQL_QUERIES_PER_S = 490.0
MULTISTART_SECONDS_PER_QUERY = 0.78

#: Distinct queries of sql-small.  A run plans them in rounds until it
#: has done ``--seconds`` worth, so the catalog (every table of every
#: query) is the same size however long the run: ``peak_rss_mb`` and
#: ``setup_s`` then measure the program, not an input that grows with run
#: length.  The program keeps nothing from one query to the next, so a
#: repeated query costs what its first round did.
SQL_POOL = 2000

#: Table counts of sql-small, 2..12, and their weights: from 3 tables up
#: each extra table is 0.55 times as common, and 2-table queries are 0.75
#: times as common as 3-table ones.  The weights control noise; they do
#: not model any measured traffic.  They put the median query mid-way
#: through the 3-table group and the 90th percentile inside the 6-table
#: group.  A percentile on the edge between two sizes jumps with the
#: machine's speed: with 2-table queries at 40%, the median sat where 2-
#: and 3-table latencies meet and moved 25% between runs while throughput
#: moved 17%.
SQL_SIZES = tuple(range(2, 13))
SQL_SIZE_WEIGHTS = tuple(
    0.75 if size == 2 else 0.55 ** (size - 3) for size in SQL_SIZES
)

WORKLOADS = ("sql-small", "multistart-sa-2w")


def slot_seed(seed: int, *labels: object) -> int:
    """A 63-bit seed derived from ``seed`` and a label path."""
    text = ":".join(str(part) for part in (seed,) + labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def anchor_slots(sizes: list[int]) -> list[int]:
    """Indices of the largest quarter of the slots (ties: earlier first)."""
    ranked = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    return sorted(ranked[: max(1, len(sizes) // ANCHOR_SHARE)])


def draw_seeds(seed: int, workload: str, sizes: list[int]) -> list[int]:
    """The generator seed of each slot: anchors ignore ``seed``."""
    anchors = set(anchor_slots(sizes))
    return [
        slot_seed(ANCHOR_SEED, workload, "anchor", index)
        if index in anchors
        else slot_seed(seed, workload, index)
        for index in range(len(sizes))
    ]


def stratified_counts(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` by ``weights`` with largest remainders, exactly."""
    scale = total / sum(weights)
    raw = [weight * scale for weight in weights]
    counts = [int(value) for value in raw]
    order = sorted(
        range(len(raw)), key=lambda k: (counts[k] - raw[k], k)
    )
    for k in order[: total - sum(counts)]:
        counts[k] += 1
    return counts


def interleave(groups: list[list]) -> list:
    """Merge groups so each is spread evenly over the whole sequence."""
    keyed = []
    for group in groups:
        for position, item in enumerate(group):
            keyed.append(((position + 0.5) / len(group), len(keyed), item))
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


# ---------------------------------------------------------------- sql-small


def sql_slots(n_queries: int) -> list[dict]:
    """Shapes of sql-small's queries: size, spec and variant per slot.

    Sizes are stratified (the same count of each size on every seed) and
    specs cycle within each size.  About one query in eleven leaves its
    last table unjoined (a cross product: the disconnected path); about
    one in six repeats a join on the same table pair (predicate folding).
    """
    groups = []
    counts = stratified_counts(n_queries, list(SQL_SIZE_WEIGHTS))
    for size, count in zip(SQL_SIZES, counts):
        groups.append(
            [
                {
                    "tables": size,
                    "spec": rank % 10,
                    "cross": rank % 11 == 3,
                    "fold": rank % 6 == 1,
                }
                for rank in range(count)
            ]
        )
    return interleave(groups)


def sql_text(prefix: str, query, slot: dict, catalog: dict) -> str:
    """Register ``query``'s tables in ``catalog``; return its SQL text.

    Join predicate ``p`` becomes ``a.jp = b.jp`` with the predicate's
    distinct counts on the two columns; selection ``m`` on a relation
    becomes ``r.sm = <const>`` with the selection's selectivity.
    """
    graph = query.graph
    n = graph.n_relations
    predicates = list(graph.predicates)
    if slot["cross"]:
        # The §5 generator attaches each relation to an earlier one, so
        # the last relation is a spanning-tree leaf: dropping its joins
        # leaves the rest connected and one table unjoined.
        predicates = [
            p for p in predicates if n - 1 not in (p.left, p.right)
        ]
    tables = []
    columns: list[dict] = [{} for _ in range(n)]
    where = []
    for k, relation in enumerate(graph.relations):
        for m, selection in enumerate(relation.selections):
            distinct = min(
                relation.base_cardinality,
                max(1, round(1.0 / selection.selectivity)),
            )
            columns[k][f"s{m}"] = {
                "distinct": distinct,
                "equality_selectivity": selection.selectivity,
            }
            where.append(f"r{k}.s{m} = {m + 1}")
    for index, predicate in enumerate(predicates):
        a, b = predicate.left, predicate.right
        columns[a][f"j{index}"] = {"distinct": predicate.left_distinct}
        columns[b][f"j{index}"] = {"distinct": predicate.right_distinct}
        where.append(f"r{a}.j{index} = r{b}.j{index}")
        if slot["fold"] and index == 0:
            columns[a]["f0"] = {"distinct": predicate.left_distinct}
            columns[b]["f0"] = {"distinct": predicate.right_distinct}
            where.append(f"r{a}.f0 = r{b}.f0")
    for k, relation in enumerate(graph.relations):
        name = f"{prefix}_r{k}"
        catalog[name] = {
            "cardinality": relation.base_cardinality,
            "columns": columns[k],
        }
        tables.append(f"{name} r{k}")
    text = "SELECT * FROM " + ", ".join(tables)
    if where:
        text += " WHERE " + " AND ".join(where)
    return text


def emit_sql_small(out: Path, seed: int, seconds: float) -> dict:
    from repro import generate_query
    from repro.workloads.benchmarks import benchmark_specs

    specs = benchmark_specs()
    catalog: dict = {}

    def texts(slots: list[dict], label: str, seeds: list[int]) -> list[str]:
        lines = []
        for index, (slot, draw) in enumerate(zip(slots, seeds)):
            query = generate_query(specs[slot["spec"]], slot["tables"] - 1, draw)
            lines.append(sql_text(f"{label}{index}", query, slot, catalog))
        return lines

    slots = sql_slots(SQL_POOL)
    sizes = [slot["tables"] for slot in slots]
    timed = texts(slots, "q", draw_seeds(seed, "sql-small", sizes))
    warmup_slots = sql_slots(40)
    warmup = texts(
        warmup_slots, "w",
        [slot_seed(WARMUP_SEED, "sql-small", i) for i in range(len(warmup_slots))],
    )
    (out / "catalog.json").write_text(
        json.dumps({"tables": catalog}), encoding="utf-8"
    )
    (out / "queries.sql").write_text(
        "".join(line + ";\n" for line in timed), encoding="utf-8"
    )
    (out / "warmup.sql").write_text(
        "".join(line + ";\n" for line in warmup), encoding="utf-8"
    )
    return {
        "queries": len(timed),
        "rounds": max(1, round(seconds * SQL_QUERIES_PER_S / SQL_POOL)),
        "anchors": anchor_slots(sizes),
    }


# ------------------------------------------------------- multistart-sa-2w


def corpus_slots(n_queries: int) -> list[dict]:
    """Shapes of multistart-sa-2w's queries: N and spec per slot.

    N spans 20..40 evenly.  Specs are dealt from the largest N down in
    the order 0, 3, 6, 9, 2, 5, 8, 1, 4, 7, which puts the dense-graph
    spec 7 on small N: its ~5 extra edges per relation make each plan
    several times dearer, and on a large N that one query would carry
    much of the run.
    """
    last = max(1, n_queries - 1)
    slots = [
        {
            "n_joins": 20 + round(20 * (k / last)),
            "spec": 3 * (n_queries - 1 - k) % 10,
        }
        for k in range(n_queries)
    ]
    # A fixed stride permutation: sizes are visited out of order, so slow
    # drift of the machine does not line up with query size.
    stride = next(s for s in (7, 11, 13) if math.gcd(s, n_queries) == 1)
    return [slots[(k * stride) % n_queries] for k in range(n_queries)]


def emit_corpus(out: Path, seed: int, seconds: float) -> dict:
    from repro import generate_query, save_benchmark
    from repro.workloads.benchmarks import benchmark_specs

    workload = "multistart-sa-2w"
    specs = benchmark_specs()
    n_queries = max(10, round(seconds / MULTISTART_SECONDS_PER_QUERY))
    slots = corpus_slots(n_queries)
    sizes = [slot["n_joins"] for slot in slots]
    queries = [
        generate_query(
            specs[slot["spec"]], slot["n_joins"], draw,
            name=f"{workload}-{index}",
        )
        for index, (slot, draw) in enumerate(
            zip(slots, draw_seeds(seed, workload, sizes))
        )
    ]
    warmup = [
        generate_query(
            specs[0], 10, slot_seed(WARMUP_SEED, workload), name="warmup"
        )
    ]
    save_benchmark(queries, out / "corpus.json")
    save_benchmark(warmup, out / "warmup.json")
    return {"queries": len(queries), "rounds": 1, "anchors": anchor_slots(sizes)}


def emit(workload: str, seed: int, seconds: float, out: Path) -> dict:
    """Write ``workload``'s inputs for ``seed`` into ``out``; a manifest."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "sql-small":
        manifest = emit_sql_small(out, seed, seconds)
    elif workload == "multistart-sa-2w":
        manifest = emit_corpus(out, seed, seconds)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest.update({"workload": workload, "seed": seed})
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
