"""Small shared utilities (vectorized array helpers, fault injection).

:mod:`repro.util.faults` is imported lazily by the crash-safety tests
rather than re-exported here — production code never needs it.
"""

from repro.util.arrays import concat_ranges, csr_positions, gather_adjacency

__all__ = ["concat_ranges", "csr_positions", "gather_adjacency"]
