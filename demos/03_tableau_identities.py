"""The tableau identities: one matrix, six equal numbers (twice).

Row-inserting the word of a service matrix builds a semistandard tableau
whose first row length equals the last departure from the queue tandem
(and the up-right path maximum), while the K-th row length equals the
cumulative output of the store tandem (and the skew path minimum).
"""

import numpy as np

from dualq.rsk import (
    lambda_operators,
    path_max,
    path_min,
    pretty,
    tableau_of,
    verify_row_queue,
    word_of,
)
from dualq.sampling import Seed
from dualq.tandem import ServiceMatrix, tandem_outputs

U = ServiceMatrix(np.array([[1, 2],
                            [3, 4]]))
word = word_of(U)
T = tableau_of(word)
print("matrix:\n", U.u)
print("word:  ", " ".join(map(str, word)))
print("tableau:")
print(pretty(T))
print("shape: ", T.shape())

print("\noperator chains (lambda_1, lambda_K):", lambda_operators(U))
print("path oracles (max, min):              ", (int(path_max(U)), int(path_min(U))))
print("tandem outputs (D, R):                ", tuple(int(x[-1]) for x in tandem_outputs(U)))

report = verify_row_queue(U)
print(f"\nsix-way identity: lambda1 {report.lambda1}  lambdaK {report.lambdaK}  "
      f"ok={report.ok}")

# the identity is exact on any nonnegative integer matrix
gen = Seed(99).generator()
V = ServiceMatrix(gen.integers(0, 6, size=(5, 4)))
rv = verify_row_queue(V)
print(f"\nrandom 5x4 instance: lambda1 {rv.lambda1}  lambdaK {rv.lambdaK}  ok={rv.ok}")

# prefixes agree too: the shape after n rows gives (D(n), R(n))
D_seq, R_seq = tandem_outputs(V)
shapes = [tableau_of(word_of(ServiceMatrix(V.u[:n]))).shape() for n in range(1, 6)]
print("prefix shapes:", shapes)
print("D prefix:     ", D_seq.tolist())
print("R prefix:     ", R_seq.tolist())
