"""Verified two-partitions by randomized search.

The goal: split the vertices into V1, V2 so that both induced tournaments
and the crossing bipartite digraph are strongly k-connected.  The search
tries seeded balanced splits, repairs cheap screen violations (degrees,
reachability) and minimum-cut witnesses by single-vertex moves, and only
returns splits the exact verifier certifies.  Every run ends in a verdict:
found, infeasible (with its proof) or unknown (the budget ran out).
"""

import time

from tourpart import Verdict
from tourpart.generators import random_tournament, transitive_tournament
from tourpart.partition import format_partition, search_partition

T = random_tournament(40, seed=3)
t0 = time.perf_counter()
res = search_partition(T, k=2, seed=0)
dt = time.perf_counter() - t0
print(f"n=40, k=2: {res.status} in {dt:.2f}s")
print("per-graph connectivity (V1, V2, cross):", res.connectivity)
print()
print(format_partition(res))

# Success rates over seeds; every hit is verifier-certified.
hits = 0
for seed in range(10):
    r = search_partition(random_tournament(40, 100 + seed), 2, seed=seed)
    hits += r.status == Verdict.FOUND
print(f"10 fresh instances at k=2: {hits}/10 partitioned")

# Negative control: a transitive tournament is not strongly connected, so
# the search must prove that no split exists rather than certify nonsense.
r = search_partition(transitive_tournament(40), 1, seed=0, budget=150)
assert r.status == Verdict.INFEASIBLE and not r.v1, r
print(f"transitive n=40: {r.status}: {r.reason}")
