"""Correctness gate and summary statistics.

A run is correct only when its trajectories are byte-identical to the
recorded ones for the seed (sha256 of the trajectory JSONL) and its quality
numbers are exactly the recorded ones.  Seeds with no record still get the
checks that need no reference: every pass of the run and every execution
path agrees on the digest, and no episode fails.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
QUALITY_KEYS = ("SR", "SPL", "RGS")
TAIL_SAMPLES = 10


def trajectory_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_expected(path=EXPECTED_PATH) -> dict:
    if not Path(path).exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_expected(expected: dict, workload: str, seed: int, digest: str, quality: dict) -> list[str]:
    """Errors against the recorded reference; empty when it matches or
    when this seed has no record."""
    record = expected.get(workload, {}).get(str(seed))
    if record is None:
        return []
    errors = []
    if digest != record["digest"]:
        errors.append(f"{workload} seed {seed}: trajectory digest {digest} != recorded {record['digest']}")
    for key in QUALITY_KEYS:
        if quality[key] != record["quality"][key]:
            errors.append(
                f"{workload} seed {seed}: quality.{key} {quality[key]!r} != recorded {record['quality'][key]!r}"
            )
    return errors


def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves at least TAIL_SAMPLES samples beyond it."""
    p = 100 * (n - TAIL_SAMPLES) // n if n > 0 else 0
    if p < 50:
        raise ValueError(f"{n} samples are too few for a tail percentile")
    return p


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]
