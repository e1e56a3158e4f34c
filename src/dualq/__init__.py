"""Queue/store duality of the single-server model.

One pair of recursions drives both a FIFO queue and a slotted storage
model; this package computes the exact pathwise objects (departures, dual
marks, workload, zigzag excursions), the saturated tandems and their
particle-system views, the RSK tableau identities tying the tableau shape
to the two tandem outputs, the Schur-polynomial shape law, and seeded
Monte Carlo experiments for the distributional theorems.

Each name is imported from the module that defines it, as in
``from dualq.queue_store import QueueTrace``: the package exports only
``__version__`` and imports none of its modules.
"""

__version__ = "0.1.0"
