"""When is recovery guaranteed?  Certificates and bounds on one instance.

Generates a modest block-model draw, then prints the full analysis
report: boundary sizes, algebraic connectivity, the spectral cut bound,
the exhaustive subset-cut check and the one-flow well-connectedness check
per labeled node, the parameter condition S*p_in/p_out >= beta*n_k*(N-n_k),
and the closed-form failure bound.

Run:  python3 demos/recovery_certificates.py
"""

from tvclust.analysis import (
    analyze_instance,
    boundary_concentration_bound,
    format_analysis_text,
    spectral_concentration_bound,
)
from tvclust.clustering import accuracy, cluster
from tvclust.sbm import SbmParams, generate_instance

params = SbmParams(cluster_sizes=(12, 12), p_in=0.8, p_out=0.015)
instance = generate_instance(params, s=1, rng_seed=0)

print(format_analysis_text(analyze_instance(instance, alpha=0.1, beta=1e-3)))

# The certificates above are exact statements about THIS graph; on this
# draw the boundary is thin enough that every check passes, so exact
# recovery from a single label per cluster is guaranteed, not lucky.
# The concentration bounds below are a priori statements about the model:
# how unlikely large boundaries and small spectral gaps are.
n_k, n = 12, 24
print("boundary bound  (n_k=12, N=24, p_out=0.015, alpha=0.1):",
      boundary_concentration_bound(n_k, n, 0.015, 0.1))
print("spectral bound  (n_k=12, p_in=0.8):",
      spectral_concentration_bound(n_k, 0.8), "(raw; clipped to 1 in reports)")

result = cluster(instance.graph, instance.seeds.labels())
print("\nrealized accuracy with one label per cluster:",
      accuracy(result, instance.truth, instance.seeds))
