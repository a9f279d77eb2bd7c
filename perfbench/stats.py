"""Statistics shared by perfbench/run.py, kept apart so they can be tested.

Percentiles use the nearest-rank rule.  A tail percentile is reported only
when at least ten samples lie beyond it, so a p90 needs 100 samples.
Latency percentiles are taken over per-group bests (best_per_group).
"""

import math
import statistics

MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    pass


def nearest_rank(sorted_values, p):
    """The p-th percentile (0 < p <= 100) of an ascending list."""
    if not sorted_values:
        raise InsufficientSamples("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def supported_percentile(n, beyond=MIN_BEYOND):
    """Highest whole percentile with at least `beyond` of n samples above
    its nearest rank; 0 when even the median is not supported."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100.0 * n) >= beyond:
            return p
    return 0


def tail(values, p=90):
    """The p-th percentile, refusing a sample too small to support it."""
    have = supported_percentile(len(values))
    if have < p:
        raise InsufficientSamples(
            "p%d needs %d samples beyond it; %d samples support only p%d"
            % (p, MIN_BEYOND, len(values), have))
    return nearest_rank(sorted(values), p)


def median(values):
    if not values:
        raise InsufficientSamples("no samples")
    return statistics.median(values)


def best_per_group(values, groups):
    """The smallest value of each group, in group order.  Interference
    from other work on the machine only ever adds time, so the fastest of
    a group's requests is the steadiest estimate of what they cost."""
    if len(values) != len(groups):
        raise ValueError("%d values but %d group labels"
                         % (len(values), len(groups)))
    best = {}
    for value, group in zip(values, groups):
        if group not in best or value < best[group]:
            best[group] = value
    return [best[group] for group in sorted(best)]


def failed_share(attempted, failures):
    """(failed, share) for `failures`, a {reason: count} map in which
    refused requests, socket errors, wrong status codes and output
    mismatches all count as failed."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    failed = sum(failures.values())
    if any(count < 0 for count in failures.values()) or failed > attempted:
        raise ValueError("failure counts %r exceed %d attempted"
                         % (failures, attempted))
    return failed, failed / attempted
