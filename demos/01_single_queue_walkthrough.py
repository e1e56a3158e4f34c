"""Walk through the single-server model on a small hand example.

The same trace is read twice: as a FIFO queue (departures D, waits w) and
as a slotted store (stock w, sold amounts r).  The run ends with the
workload path, the busy periods, and one zigzag excursion.
"""

import sys

import numpy as np

from dualq.queue_store import (
    QueueTrace,
    backward_check,
    busy_periods,
    trace_to_csv,
    transform,
    workload_pair,
    zigzag_from_trace,
)
from dualq.sampling import RateParams, Seed, sample_input

# the worked example: two customers, the second arrives mid-service
trace = QueueTrace(A=[0, 3], s=[5, 1])
print("hand example (A=0,3  s=5,1):")
trace_to_csv(trace, sys.stdout)
print(f"conservation r+d = a+s':  {trace.r + trace.d} == {trace.a + trace.s[1:]}")

W, Wbar = workload_pair(trace)
print(f"\nworkload W(0)={W(0)}, W(3)={W(3)}, left limit at 3 = {W.left_limit(3)} (= w_2)")
print(f"dual path Wbar(4.5)={Wbar(4.5)} (age of the head customer)")

# a seeded geometric trace, long enough for several busy periods
params = RateParams("geomgeom1", 0.3, 0.6)
trace = transform(sample_input(params, 40, Seed(2024)))
periods = busy_periods(trace)
print(f"\nseeded geometric trace: {len(trace)} customers, {len(periods)} busy periods")
for per in periods[:4]:
    runs = zigzag_from_trace(trace, per).run_lengths
    print(f"  busy [{per.start:>3}, {per.end:>3})  customers {per.customers}  zigzag {runs}")

check = backward_check(trace)
print(f"\nbackward Lindley and sojourn identities: ok={check.ok}, "
      f"max error {check.max_error}")

# total busy + idle time tiles the window exactly
busy = sum(p.length for p in periods)
idle = sum(b.start - a.end for a, b in zip(periods, periods[1:]))
print(f"busy {busy} + idle {idle} = {busy + idle} "
      f"(window span {trace.D[-1] - trace.A[0]})")
