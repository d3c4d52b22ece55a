"""Statistics of the serving benchmark: percentiles with their sample
counts, per-operation-type splits, and the failure / throughput
accounting. Pure functions over plain lists, unit-tested by
perfbench/test_stats.py."""

import math

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise the highest percentile that qualifies is reported.
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile of `samples`.

    Returns (value, reported_p, n). When fewer than MIN_BEYOND samples
    lie beyond the rank of `p`, the highest qualifying percentile is
    reported instead, with its own value. Returns None when not even
    that exists (fewer than MIN_BEYOND + 1 samples)."""
    n = len(samples)
    if n <= MIN_BEYOND:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        rank = n - MIN_BEYOND
        p = 100.0 * rank / n
    return ordered[rank - 1], p, n


def median(samples):
    """Plain median (no sample-count rule): for repeated set-up timings
    and other small sets where only the middle matters."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def split_by_type(records):
    """{op_type: [latency, ...]} from (op_type, latency) pairs, so each
    percentile is taken over one latency mode."""
    by_type = {}
    for op_type, latency in records:
        by_type.setdefault(op_type, []).append(latency)
    return by_type


def queries_answered(outcomes):
    """Queries answered correctly: `outcomes` holds one
    (queries_in_request, correct) pair per request, so a BATCH of n
    answered correctly counts n and a failed one counts nothing."""
    return sum(count for count, correct in outcomes if correct)


def failed_ratio(errors, refusals, mismatches, attempted):
    """(ERR replies + refusals + oracle mismatches) / requests attempted."""
    if attempted <= 0:
        raise ValueError("no requests attempted")
    return (errors + refusals + mismatches) / attempted


def split_chunks(items, k):
    """`items` split into k contiguous chunks of near-equal length (the
    longer ones first); fewer when there are fewer than k items."""
    k = max(1, min(k, len(items)))
    size, extra = divmod(len(items), k)
    chunks, start = [], 0
    for i in range(k):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def group_runs(items, key):
    """Consecutive items with equal key(item), as a list of lists."""
    groups = []
    for item in items:
        if groups and key(groups[-1][-1]) == key(item):
            groups[-1].append(item)
        else:
            groups.append([item])
    return groups
