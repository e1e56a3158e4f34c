"""The insertion-shape law and stage interchangeability.

With zero-inclusive geometric entries of weight q_j per stage, the
insertion shape is distributed as a(q)^N s_l(q) #SSYT(l over N letters),
a law symmetric in the weights; reordering tandem stages therefore leaves
the joint output law unchanged.
"""

from collections import Counter

import numpy as np

from dualq.rsk import tableau_of, word_of
from dualq.sampling import Seed, draw_geometric0
from dualq.schur import shape_pmf, transition_prob
from dualq.stattest import interchange_experiment, shape_law_experiment

q = (0.3, 0.5)
N = 4
reps = 30_000

# simulate shapes directly to eyeball the law
gen = Seed(12).generator()
U = np.stack([draw_geometric0(gen, qj, (reps, N)) for qj in q], axis=2)
counts = Counter(tableau_of(word_of(m)).shape() for m in U)

print(f"shape law at q={q}, N={N} ({reps} samples)")
print(f"{'shape':<12}{'observed':>10}{'predicted':>11}")
for l, c in counts.most_common(8):
    print(f"{str(l):<12}{c / reps:>10.4f}{shape_pmf(l, q, N):>11.4f}")

print("\none-row growth probabilities from m=(2,):")
for l in [(2,), (3,), (3, 1), (4, 2)]:
    print(f"  -> {l}: {transition_prob((2,), l, q):.4f}")

# the packaged experiments run the statistics end to end
rep = shape_law_experiment(q, N, reps, Seed(0))
print(f"\nshape-law experiment verdict: {'pass' if rep.passed else 'FAIL'}")
for r in rep.results:
    print(f"  {r.name:<34} p={r.p_value:.4f}")

rep = interchange_experiment((0.3, 0.6), (1, 0), N, reps, Seed(0))
print(f"\ninterchange experiment (swap stages) verdict: "
      f"{'pass' if rep.passed else 'FAIL'}")
print(f"  mean D under both orders: {rep.diagnostics['mean_D']}")
print(f"  mean R under both orders: {rep.diagnostics['mean_R']}")
