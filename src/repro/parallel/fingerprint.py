"""Byte-exact fingerprints of estimates, for equivalence auditing.

Two executions of the same experiment are *equivalent* when every trial's
estimate matches bit-for-bit.  Floats are fingerprinted through their IEEE-754
byte representation (``struct.pack('<d', x)``), not a decimal rendering, so
the check is exact: a single ULP of drift between a serial and a parallel run
changes the digest.  The ``details`` diagnostics (design objects,
allocations, fallback markers) are deliberately excluded — they describe the
run, not the estimate; wall-clock timings live in :mod:`repro.obs`, never
on the estimate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Iterable

from repro.core.estimate import CountEstimate


def _pack_float(value: float | None) -> bytes:
    if value is None:
        return b"\x00none\x00"
    return struct.pack("<d", float(value))


def _pack_int(value: int) -> bytes:
    return struct.pack("<q", int(value))


def estimate_digest(estimate: CountEstimate) -> bytes:
    """Raw 32-byte digest of every deterministic field of one estimate."""
    digest = hashlib.sha256()
    digest.update(estimate.method.encode())
    digest.update(_pack_float(estimate.count))
    digest.update(_pack_float(estimate.proportion))
    digest.update(_pack_int(estimate.population_size))
    digest.update(_pack_int(estimate.predicate_evaluations))
    digest.update(_pack_float(estimate.variance))
    digest.update(_pack_float(estimate.count_offset))
    interval = estimate.interval
    if interval is None:
        digest.update(b"\x00no-interval\x00")
    else:
        digest.update(interval.method.encode())
        digest.update(_pack_float(interval.low))
        digest.update(_pack_float(interval.high))
        digest.update(_pack_float(interval.confidence))
    return digest.digest()


def estimate_fingerprint(estimate: CountEstimate) -> str:
    """Hex digest of every deterministic field of one estimate."""
    return estimate_digest(estimate).hex()


def estimates_fingerprint(estimates: Iterable[CountEstimate]) -> str:
    """Hex digest over an ordered sequence of estimates (one experiment)."""
    combined = hashlib.sha256()
    for estimate in estimates:
        combined.update(estimate_digest(estimate).hex().encode())
    return combined.hexdigest()


def _update_with_fields(digest: "hashlib._Hash", spec: object) -> None:
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        digest.update(field.name.encode())
        digest.update(b"=")
        if value is None:
            digest.update(b"\x00none\x00")
        elif isinstance(value, bool):
            digest.update(b"true" if value else b"false")
        elif isinstance(value, int):
            digest.update(_pack_int(value))
        elif isinstance(value, float):
            digest.update(_pack_float(value))
        else:
            digest.update(str(value).encode())
        digest.update(b"\x1f")


def task_fingerprint(
    workload_spec: object,
    method_spec: object,
    num_trials: int,
    seed: int,
    budget: int,
) -> str:
    """Hex digest of one experiment's deterministic task description.

    Covers every field of the workload and method specs — including the
    workload spec's query-backend choice — plus the trial count, master seed and
    budget.  Two runs with the same task fingerprint must produce the same
    :func:`estimates_fingerprint`; runs that differ *only* in backend have
    different task fingerprints but, by the backend-parity contract,
    identical estimate fingerprints.
    """
    digest = hashlib.sha256()
    digest.update(b"workload:")
    _update_with_fields(digest, workload_spec)
    digest.update(b"method:")
    _update_with_fields(digest, method_spec)
    digest.update(b"trials:")
    digest.update(_pack_int(num_trials))
    digest.update(b"seed:")
    digest.update(_pack_int(seed))
    digest.update(b"budget:")
    digest.update(_pack_int(budget))
    return digest.hexdigest()
