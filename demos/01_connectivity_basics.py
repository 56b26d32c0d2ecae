"""Strong connectivity, separators and linkedness on small tournaments.

A tournament is strongly k-connected when it has more than k vertices and
no deletion of fewer than k vertices can destroy all directed paths between
some ordered pair.  This script walks through the three stock families and
shows the Menger certificates behind the numbers.
"""

from tourpart import is_k_linked, is_strongly_k_connected, min_separator, vertex_connectivity
from tourpart.generators import paley_tournament, random_tournament, transitive_tournament

# The 3-cycle is the smallest strongly connected tournament.
c3 = paley_tournament(3)
print("3-cycle: connectivity =", vertex_connectivity(c3))

# Transitive tournaments point one way; the sink can never reach the source.
t8 = transitive_tournament(8)
print("transitive n=8: connectivity =", vertex_connectivity(t8))

# The quadratic-residue tournament on 7 vertices is 3-regular and famously
# 3-connected: deleting any two vertices leaves everything mutually reachable.
p7 = paley_tournament(7)
print("Paley-7: connectivity =", vertex_connectivity(p7))
for k in (3, 4):
    print(f"  strongly {k}-connected:", is_strongly_k_connected(p7, k))

# Separator certificates come with a matching family of internally disjoint
# paths; the two sizes agree on every query (Menger's equality).
cert = min_separator(p7, 0, 3)
print("Paley-7 pair (0,3): min cut =", sorted(cert.separator))
for path in cert.paths:
    print("  disjoint path:", " -> ".join(map(str, path)))

# Random tournaments concentrate around connectivity n/2 - O(sqrt(n)).
for n in (20, 40, 80):
    T = random_tournament(n, seed=1)
    print(f"random n={n}: connectivity = {vertex_connectivity(T)}")

# Linkedness is stronger than connectivity: every way of prescribing k
# disjoint source/target pairs must be routable simultaneously.  Exhaustive
# checking is exponential, so keep n small.  The verdict is found (every
# tuple linked), infeasible (some tuple not) or unknown (budget exhausted).
print("Paley-7 1-linked:", is_k_linked(p7, 1))
print("3-cycle 2-linked:", is_k_linked(c3, 2), "(too few vertices)")
