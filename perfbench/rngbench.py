"""Microbenchmarks of the public ``mlpicard.rng`` API, in ns per element.

Widths: ``w1k`` is 1,000 lanes (a lane chunk of the MLP engine) and
``w1m`` is 2**20 lanes (an Euler draw block).  Each operation is called
once before timing, then timed in repeated batches; the median batch is
reported.  Bytes moved are not measured: ``COMPUTED_BYTES`` gives the
traffic the API cannot avoid (one uint64 key in, one 8-byte value out per
element), from which an effective bandwidth can be computed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

COMPUTED_BYTES = 16
_REPEATS = 7
_BATCH_S = 0.01


def _ns_per_elem(op, elems: int) -> float:
    op()
    t0 = time.perf_counter()
    op()
    inner = max(1, int(_BATCH_S / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            op()
        samples.append((time.perf_counter_ns() - t0) / (inner * elems))
    return statistics.median(samples)


def run(seed: int) -> dict[str, float]:
    from mlpicard.rng import SplittableStream, StreamBundle

    out = {}
    for label, width in (("w1k", 1000), ("w1m", 1 << 20)):
        bundle = StreamBundle.root_children(seed, np.arange(1, width + 1))
        out[f"rng.gaussian_ns.{label}"] = _ns_per_elem(bundle.next_gaussian, width)
        out[f"rng.spawn_ns.{label}"] = _ns_per_elem(lambda: bundle.spawn(7), width)
        if label == "w1k":
            out["rng.uniform_ns.w1k"] = _ns_per_elem(bundle.next_uniform, width)
    stream = SplittableStream.root(seed).spawn(1)
    out["rng.scalar_spawn_ns"] = _ns_per_elem(lambda: stream.spawn(3), 1)
    out["rng.scalar_gaussian_ns"] = _ns_per_elem(stream.next_gaussian, 1)
    return out
