"""The benchmark's own arithmetic: percentiles, open-loop timing, the
max-rate search, queue-wait attribution, and reconciliation.

Everything here is a pure function of plain numbers, so the unit tests in
``perfbench/tests`` pin it down without running the program.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics

#: A reported tail percentile must have at least this many samples
#: strictly beyond it (otherwise it is the sample maximum in disguise).
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than its tail needs."""


def median(values) -> float:
    return float(statistics.median(values))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie beyond the nearest-rank ``q``th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose ``q``th percentile has ``min_beyond``
    samples beyond it."""
    n = 1
    while samples_beyond(n, q) < min_beyond:
        n += 1
    return n


def percentile(values, q: float, min_beyond: int = 0) -> float:
    """Nearest-rank ``q``th percentile (``0 < q <= 100``).

    With ``min_beyond`` set, raises :class:`TooFewSamples` unless at least
    that many samples lie strictly beyond the reported one.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("no samples")
    if samples_beyond(n, q) < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"need {min_beyond} (>= {min_samples(q, min_beyond)} samples)"
        )
    return float(ordered[max(1, math.ceil(q / 100.0 * n)) - 1])


def fastest_each(runs) -> list:
    """Element-wise minimum of equally long per-pass sample lists: each
    unit of work (a join, a task) at its fastest pass."""
    lengths = {len(run) for run in runs}
    if len(lengths) != 1:
        raise ValueError(f"passes differ in length: {sorted(lengths)}")
    return [min(samples) for samples in zip(*runs)]


# ------------------------------------------------------------ open loop


def poisson_schedule(rate: float, count: int, rng: random.Random) -> list:
    """Due offsets (seconds from the start) of ``count`` Poisson arrivals."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    due, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        due.append(t)
    return due


def due_latencies(due, done) -> list:
    """Latency of each request timed from when it was due, not sent: a
    stall of the generator is charged to every request it delayed."""
    return [d1 - d0 for d0, d1 in zip(due, done)]


def lateness(due, sent) -> list:
    """How late the generator issued each request (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def backlog_grows(late, tolerance_s: float) -> bool:
    """Whether the generator fell further behind over the run.

    Compares the mean lateness of the last quarter of the requests with
    that of the first quarter; a sustainable rate keeps it stationary,
    an overloaded one makes it grow with time.
    """
    quarter = max(1, len(late) // 4)
    first = sum(late[:quarter]) / quarter
    last = sum(late[-quarter:]) / quarter
    return last - first > tolerance_s


def rate_passes(latencies, late, limit_s: float, q: float,
                tolerance_s: float) -> bool:
    """The max-rate criterion: the ``q``th-percentile latency meets
    ``limit_s`` and the generator's lateness does not grow."""
    tail = percentile(latencies, q, min_beyond=MIN_BEYOND)
    return tail <= limit_s and not backlog_grows(late, tolerance_s)


def rate_search(start: float, rel_step: float, floor: float,
                ceiling: float, growth: float = 2.0):
    """Search for the highest rate in ``[floor, ceiling]`` that passes,
    to within ``rel_step``.

    A generator: it yields each rate to probe, is sent whether that rate
    passed, and returns the answer (``floor`` when even the floor fails),
    so a caller whose probes are asynchronous can drive it.  Passing is
    assumed monotone (true below some knee, false above).  The search
    walks geometrically from ``start`` by ``growth`` until it brackets
    the knee, then bisects in log space until the bracket's ratio is at
    most ``1 + rel_step``.
    """
    if not 0 < floor <= start <= ceiling:
        raise ValueError("need 0 < floor <= start <= ceiling")
    if rel_step <= 0 or growth <= 1:
        raise ValueError("need rel_step > 0 and growth > 1")
    good = bad = None
    if (yield start):
        good = start
        while good < ceiling:
            rate = min(ceiling, good * growth)
            if (yield rate):
                good = rate
            else:
                bad = rate
                break
        if bad is None:
            return good
    else:
        bad = start
        while bad > floor:
            rate = max(floor, bad / growth)
            if (yield rate):
                good = rate
                break
            bad = rate
        if good is None:
            return floor
    while bad / good > 1.0 + rel_step:
        mid = math.sqrt(good * bad)
        if (yield mid):
            good = mid
        else:
            bad = mid
    return good


# ----------------------------------------------------- queue attribution


def attribute_queue_wait(requests, batches) -> list:
    """Queue wait of each request that went through a kernel batch.

    ``requests`` are ``(due, sent, done, key)`` tuples and ``batches``
    ``(start, end, keys)`` tuples, where ``keys`` lists the key of every
    query in the batch (with repeats).  A request is served by the
    earliest batch that starts no earlier than it was sent, ends no later
    than it completed, and still has an unclaimed slot for its key;
    requests that no batch served (cache hits, mutations) get ``None``.
    The wait is the batch start minus the request's due time.
    """
    order = sorted(range(len(batches)), key=lambda i: batches[i][0])
    starts = [batches[i][0] for i in order]
    slots: list = []
    for i in order:
        counts: dict = {}
        for key in batches[i][2]:
            counts[key] = counts.get(key, 0) + 1
        slots.append(counts)
    waits: list = [None] * len(requests)
    for r in sorted(range(len(requests)), key=lambda i: requests[i][1]):
        due, sent, done, key = requests[r]
        j = bisect.bisect_left(starts, sent)
        while j < len(order):
            start, end, _keys = batches[order[j]]
            if end > done:
                break
            if slots[j].get(key, 0) > 0:
                slots[j][key] -= 1
                waits[r] = start - due
                break
            j += 1
    return waits


def invalidation_seconds(service_ends, index_ends) -> float:
    """Time the service spent on each mutation after the index's own.

    A service insert or delete finishes the index mutation and then, with
    no await in between, scans its cache for entries to invalidate; so
    each service mutation's end minus the end of the latest index
    mutation before it is that scan.
    """
    ordered = sorted(index_ends)
    total = 0.0
    for end in service_ends:
        i = bisect.bisect_right(ordered, end)
        if i:
            total += end - ordered[i - 1]
    return total


# --------------------------------------------------------- reconciliation


def reconcile(parts: dict, total: float, eps: float) -> dict:
    """Check that layer times account for ``total`` within ``eps``.

    Returns the residual (``total`` minus the parts) as a share of
    ``total`` and whether its magnitude is at most ``eps``.
    """
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    accounted = sum(parts.values())
    residual = (total - accounted) / total
    return {
        "total_s": total,
        "parts_s": dict(parts),
        "residual_frac": residual,
        "eps": eps,
        "ok": abs(residual) <= eps,
    }


def contained(inner: float, outer: float, eps: float) -> bool:
    """``inner`` fits inside ``outer`` up to a relative slack ``eps``."""
    return inner <= outer * (1.0 + eps) + 1e-9
