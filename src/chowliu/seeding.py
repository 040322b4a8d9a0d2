"""Deterministic seed derivation.

Every randomized routine in this package takes an explicit integer seed, and
composite jobs (experiment grids, calibration trials) derive one independent
seed per unit of work from a master seed plus a label path.  Hash-based
derivation keeps the streams independent of execution order, so trials can be
run sequentially or partitioned without changing any result.

hashlib is imported on the first call of derive_seed, not with this module:
it maps OpenSSL, about 3.5 MB of a process's memory, and the learner (plug-in
MI, spanning tree, add-1 fit) never derives a seed.
"""

from __future__ import annotations

__all__ = ["derive_seed"]


def derive_seed(*parts) -> int:
    """Map a tuple of labels (ints, floats, strings) to a stable 63-bit seed."""
    import hashlib  # here, so that processes that derive no seed never load OpenSSL

    key = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF
