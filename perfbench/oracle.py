"""Exact all-pairs oracle for the batch workloads, independent of ``repro``.

Spearman's Footrule between two top-k rankings, with the artificial rank
``k`` for absent items, is ``T + sum_p (|t_p - p| + t_p - k)`` over the
positions ``p`` of ``b``'s items, where ``t_p`` is the rank of ``b``'s
``p``-th item in ``a`` (``k`` when absent) and ``T = k(k+1)/2``.

Two rankings sharing ``o`` items are at least ``(k-o)(k-o+1)`` apart (the
private items each side contributes sit, at best, on its last positions).
So every pair within ``theta_raw`` shares at least ``o_min`` items, and by
pigeonhole any ``k - o_min + 1`` items of ``a`` contain one of ``b``'s.
The oracle therefore scores, exactly, every pair in which ``b`` holds one
of the ``k - o_min + 1`` globally rarest items of ``a`` — a superset of
the answer — and keeps those within ``theta_raw``.  Nothing here shares
code with the join algorithms; :func:`all_pairs_rows` is the plain
quadratic scan used on small inputs and to spot-check this one.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Candidate pairs scored per chunk (bounds the oracle's scratch memory).
PAIR_CHUNK = 200_000


def encode(rows) -> tuple:
    """Dense item codes: an ``(n, k)`` int32 matrix and the domain size."""
    table: dict = {}
    codes = np.array(
        [[table.setdefault(item, len(table)) for item in row] for row in rows],
        dtype=np.int32,
    )
    return codes, len(table)


def min_overlap(k: int, theta_raw: float) -> int:
    """Fewest shared items a pair within ``theta_raw`` can have."""
    for o in range(k + 1):
        if (k - o) * (k - o + 1) <= theta_raw:
            return o
    return k


def footrule_pairs(codes, domain, a, b) -> np.ndarray:
    """Exact raw Footrule of the row pairs ``(a[i], b[i])``.

    Pairs are scored in chunks that share a window of ``a`` rows, each
    with a dense ``(rows, domain)`` rank table of that window.
    """
    k = codes.shape[1]
    out = np.empty(len(a), dtype=np.int64)
    pos = np.arange(k, dtype=np.int16)
    order = np.argsort(a, kind="stable")
    window = max(1, PAIR_CHUNK * k // max(domain, 1) // 4)
    sorted_a = a[order]
    lo_index = 0
    while lo_index < len(a):
        lo = int(sorted_a[lo_index])
        hi_index = int(np.searchsorted(sorted_a, lo + window))
        hi_index = min(hi_index, lo_index + PAIR_CHUNK)
        picked = order[lo_index:hi_index]
        rows = a[picked].astype(np.int64) - lo
        span = int(rows.max()) + 1
        table = np.full((span, domain), k, dtype=np.int16)
        table[np.arange(span)[:, None], codes[lo:lo + span]] = pos
        taken = table[rows[:, None], codes[b[picked]]]
        out[picked] = (
            np.abs(taken - pos) + taken - k
        ).sum(axis=1, dtype=np.int64) + k * (k + 1) // 2
        lo_index = hi_index
    return out


def all_pairs_rows(codes, domain, rows, theta_raw) -> set:
    """Quadratic scan: every pair touching ``rows`` within ``theta_raw``."""
    n = codes.shape[0]
    found: set = set()
    others = np.arange(n, dtype=np.int64)
    for row in rows:
        a = np.full(n, row, dtype=np.int64)
        dist = footrule_pairs(codes, domain, a, others)
        for other in np.nonzero(dist <= theta_raw)[0].tolist():
            if other != row:
                pair = (min(row, other), max(row, other))
                found.add((pair[0], pair[1], int(dist[other])))
    return found


def self_join(codes, domain, theta_raw) -> list:
    """Every ``(row_a, row_b, distance)``, ``row_a < row_b``, within
    ``theta_raw``, sorted."""
    n, k = codes.shape
    overlap = min_overlap(k, theta_raw)
    if overlap == 0:  # even disjoint rankings qualify: scan everything
        return sorted(all_pairs_rows(codes, domain, range(n), theta_raw))
    prefix = k - overlap + 1
    freq = np.bincount(codes.ravel(), minlength=domain)
    # Rarest-first global order; ties by code so the order is total.
    rarity = np.lexsort((np.arange(domain), freq)).argsort()
    by_rarity = np.take_along_axis(
        codes, np.argsort(rarity[codes], axis=1), axis=1
    )[:, :prefix]
    # Full posting lists (CSR): rows holding each item anywhere.
    flat_items = codes.ravel()
    flat_rows = np.repeat(np.arange(n, dtype=np.int64), k)
    order = np.argsort(flat_items, kind="stable")
    post_rows = flat_rows[order]
    starts = np.concatenate(([0], np.cumsum(freq)))
    found_a, found_b, found_d = [], [], []
    step = max(1, PAIR_CHUNK // max(1, int(freq.max())))
    for lo in range(0, n, step):
        block = by_rarity[lo:lo + step]
        owner = np.repeat(
            np.arange(lo, lo + len(block), dtype=np.int64), prefix
        )
        items = block.ravel()
        lengths = freq[items]
        a = np.repeat(owner, lengths)
        first = np.repeat(starts[items] - np.cumsum(lengths) + lengths, lengths)
        b = post_rows[np.arange(len(a)) + first]
        keep = b > a
        pair_keys = np.unique(a[keep] * n + b[keep])
        a, b = pair_keys // n, pair_keys % n
        dist = footrule_pairs(codes, domain, a, b)
        within = dist <= theta_raw
        found_a.append(a[within])
        found_b.append(b[within])
        found_d.append(dist[within])
    a = np.concatenate(found_a)
    b = np.concatenate(found_b)
    d = np.concatenate(found_d)
    return sorted(zip(a.tolist(), b.tolist(), d.tolist()))


def digest(pairs) -> str:
    """Order-independent SHA-256 of ``(a, b, distance)`` triples."""
    h = hashlib.sha256()
    for a, b, d in sorted(pairs):
        h.update(f"{a},{b},{d};".encode())
    return h.hexdigest()
