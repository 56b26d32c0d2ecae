"""The constructive coloring pipeline at desk scale.

With the full-strength constants the construction is guaranteed, but it
needs minimum degree around 10^9, far beyond anything desk-sized; the gate
reports that honestly.  With relaxed parameters the same five stages run on
a random n=3000 tournament: extremal anchors, dominating chains, safety
bootstrap, connector paths, exception cleanup.  Every stage leaves an exit
audit, and the final coloring is handed to the exact verifier.
"""

import time
from dataclasses import asdict

from tourpart.generators import random_tournament
from tourpart.partition import verify_partition
from tourpart.pipeline import PipelineError, PipelineParams, run_pipeline

T = random_tournament(3000, seed=0)

# the guaranteed constants refuse desk-scale input, with the reason
try:
    run_pipeline(T, 1, PipelineParams.guaranteed(1))
except PipelineError as exc:
    print("guaranteed constants:", exc)

params = PipelineParams.relaxed(1)
print("\nrelaxed parameters:", asdict(params))
t0 = time.perf_counter()
state = run_pipeline(T, 1, params, seed=0)
dt = time.perf_counter() - t0
v1, v2 = state.partition_sets()
print(f"pipeline colored all {T.n} vertices in {dt:.1f}s "
      f"(|V1|={len(v1)}, |V2|={len(v2)})")

print("\nstage audit trail:")
for audit in state.audits:
    flag = "ok " if audit.passed else "FAIL"
    extras = {k: v for k, v in audit.info.items() if not isinstance(v, dict)}
    print(f"  [{flag}] {audit.stage}: {extras}")

res = verify_partition(T, v1, v2, 1)
print("\nverifier:", "certified" if res.verified else "rejected",
      "| per-graph levels:", res.connectivity)
