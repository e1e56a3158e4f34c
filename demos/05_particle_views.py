"""Particle-system views: zero-range clocks, the bus-stop process, and
their 0/1 exclusion encodings.

The queue tandem is a zero-range process whose jump instants reproduce the
departure matrix exactly; the store tandem is the bus-stop process whose
transports reproduce the store departures; gap encoding turns either
occupancy vector into an exclusion configuration.
"""

import numpy as np

from dualq.particles import (
    bus_stop_run,
    bus_stop_step,
    exclusion_step,
    from_exclusion,
    occupancy_history,
    to_exclusion,
    zero_range_run,
)
from dualq.tandem import ServiceMatrix, queue_departures, store_flow

U = ServiceMatrix(np.array([[1, 2],
                            [3, 4]]))

print("service matrix:\n", U.u)
print("\nzero-range jump log (particle, site, slot):")
for e in zero_range_run(U):
    print(f"  particle {e.particle} leaves site {e.site} at slot {e.slot}")
print("departure matrix D(n, k):\n", queue_departures(U)[1:, 1:])

print("\nbus-stop transports per (slot, site):\n", bus_stop_run(U))
print("store departures r(n, k):\n", store_flow(U)[0])

print("\nslot-indexed occupancy snapshots (zero-range):\n",
      occupancy_history(U, model="zero-range"))

counts = [7, 2, 0, 3]
cells = to_exclusion(counts)
print(f"\nsite counts {counts} encode to: {cells.tolist()}")
print("decoded back:", from_exclusion(cells))

buses = [3, 1, 4, 2]
stepped = exclusion_step(cells, buses)
new_counts, moved = bus_stop_step(counts, buses)
print(f"\none slot with buses {buses}:")
print(f"  exclusion step:       {stepped.tolist()}")
print(f"  bus-stop step:        {new_counts} (moved {moved})")
print(f"  re-encoded counts:    {to_exclusion(new_counts).tolist()}")
print("  (the leading zeros of the stepped configuration are the departures)")
