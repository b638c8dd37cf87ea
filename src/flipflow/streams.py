"""Deterministic random streams.

All randomness in the package flows through counter-based Philox
generators keyed by (seed, purpose tags).  The key derivation hashes the
tag tuple, so substreams for different purposes, replicates or grid cells
never collide and never depend on consumption order elsewhere.  The
draws repeat bit for bit on every platform because Philox output is
defined by its key and counter alone; floats computed from them, such
as CSV values, can move in the last ulp with the BLAS kernel.
"""

import hashlib

import numpy as np


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator for the substream identified by (seed, *tags).

    Tags may be ints or strings; they name the purpose of the stream
    (e.g. ``substream(7, "tuples")`` or ``substream(7, "mc", i, j, a, b)``).
    """
    material = repr((int(seed),) + tuple(tags)).encode()
    digest = hashlib.sha256(material).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))
