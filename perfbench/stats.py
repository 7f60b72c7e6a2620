"""Statistics and bookkeeping for the repo benchmark (see README.md).

Pure functions and small classes with no I/O beyond hashing a file, so
`test_stats.py` can pin them without building anything.
"""

import hashlib
import math
import statistics

# A timing is reported at the highest of these percentiles that still
# has at least TAIL_BEYOND samples above it.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def median(values):
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q3) as `statistics.quantiles(values, n=4)` gives them; a
    single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """The quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(values):
    """The highest candidate percentile with at least TAIL_BEYOND samples
    strictly beyond it, as (percentile, value); None when the sample
    count allows none. Nearest-rank: the p-th percentile is the
    ceil(p/100 * n)-th smallest sample."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_CANDIDATES:
        rank = max(1, math.ceil(p / 100.0 * n))
        value = ordered[rank - 1]
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= TAIL_BEYOND:
            return p, value
    return None


def summary(values):
    """Mean, median, quartiles, sample count and tail percentile of one
    metric's samples, for the detail report."""
    q1, q3 = quartiles(values)
    out = {"n": len(values), "mean": statistics.mean(values), "median": median(values),
           "q1": q1, "q3": q3}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail"] = {"percentile": tail[0], "value": tail[1]}
    return out


def at_reference_speed(samples, calibrations, reference_s):
    """Timings scaled to the host speed at which the calibration takes
    `reference_s`. Each sample is (value, after): its op ran between
    calibrations[after - 1] and calibrations[after], and the value is
    scaled by reference_s over their mean."""
    return [value * 2 * reference_s / (calibrations[after - 1] + calibrations[after])
            for value, after in samples]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


class DigestBook:
    """Expected artifact digests: a kind with a pinned digest must match
    it; for any other kind the first digest seen becomes the reference
    every later op of the run must reproduce."""

    def __init__(self, pinned=None):
        self.expected = dict(pinned or {})

    def check(self, kind, digest):
        """None when `digest` is the expected one, else the reason."""
        want = self.expected.setdefault(kind, digest)
        if digest != want:
            return f"{kind} digest {digest[:12]} != expected {want[:12]}"
        return None


class OpLog:
    """Every attempted op with its outcome. A failed op counts in the
    error rate and its timings are dropped."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, reasons):
        """Counts one op; `reasons` lists its failed checks. Returns
        whether it passed."""
        self.attempted += 1
        if reasons:
            self.failures.append(f"{name}: {'; '.join(reasons)}")
            return False
        return True

    @property
    def failed(self):
        return len(self.failures)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0
