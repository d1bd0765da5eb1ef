"""Tour improvement: 2-opt (best-improvement passes) and 3-opt
(first-improvement with restart). Both are deterministic and never return
a longer tour than they were given.
"""

from __future__ import annotations

import functools

import numpy as np

from .instance import DistanceMatrix, Tour

# A move must beat the incumbent by more than this to be applied; keeps
# float noise from causing improvement cycles.
IMPROVEMENT_EPS = 1e-10


@functools.lru_cache(maxsize=8)
def reversal_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every segment reversal (i, j), 0 <= i < j < n, but the full-tour one
    (0, n-1), in lexicographic order, as read-only arrays i, j and
    (j + 1) % n. Cached for a few sizes; 2-opt scans it, SA draws from it."""
    i_idx, j_idx = np.triu_indices(n, k=1)
    keep = ~((i_idx == 0) & (j_idx == n - 1))
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    table = (i_idx, j_idx, (j_idx + 1) % n)
    for column in table:
        column.setflags(write=False)
    return table


def reversal_deltas(order: np.ndarray, d: np.ndarray, i_idx, j_idx, j_next) -> np.ndarray:
    """Four-edge length change of reversing order[i..j] for each (i, j)."""
    a = order[i_idx - 1]  # -1 wraps to the last position
    b = order[i_idx]
    c = order[j_idx]
    e = order[j_next]
    return d[a, c] + d[b, e] - d[a, b] - d[c, e]


@functools.lru_cache(maxsize=8)
def _tour_offsets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat offsets into a row-major n x n matrix P indexed by tour position:
    of P[i-1, j], P[i, j+1] and P[i-1, i] for each of reversal_table(n)'s
    (i, j), and of P[k, k+1], the edge leaving position k, for each k; -1
    and n wrap around. Cached like the table."""
    i_idx, j_idx, j_next = reversal_table(n)
    i_prev = (i_idx - 1) % n
    k = np.arange(n)
    offsets = (i_prev * n + j_idx, i_idx * n + j_next, i_prev * n + i_idx, k * n + (k + 1) % n)
    for column in offsets:
        column.setflags(write=False)
    return offsets


def two_opt(t: Tour, m: DistanceMatrix) -> Tour:
    """Repeat best-improvement passes over all segment reversals (i, j),
    0 <= i < j < n (full-tour reversal excluded), applying the single most
    improving move per pass, until 2-opt locally optimal. Move deltas use
    the four-edge formula; ties go to the lexicographically smallest (i, j).

    The passes read a copy of the matrix permuted into tour order,
    tour_d[r, c] = d[order[r], order[c]], so each delta is gathered from one
    flat array; each move reverses tour_d's rows and columns i..j along with
    the tour.
    The deltas are reversal_deltas' sums, term for term in the same order,
    so the moves and the result are the same as scanning d.
    """
    n = m.n
    if n < 4:
        return t
    i_idx, j_idx, _ = reversal_table(n)
    ac, be, ab, edge = _tour_offsets(n)

    order = np.array(t, dtype=np.intp)
    tour_d = m.d[order[:, None], order]
    flat = tour_d.reshape(-1)
    while True:
        leaving = flat.take(edge)  # P[k, k+1]: each reversal's edge (j, j+1) is leaving[j]
        delta = flat.take(ac)
        delta += flat.take(be)
        delta -= flat.take(ab)
        delta -= leaving.take(j_idx)
        k = int(delta.argmin())
        if delta[k] >= -IMPROVEMENT_EPS:
            break
        i, j = int(i_idx[k]), int(j_idx[k])
        order[i:j + 1] = order[i:j + 1][::-1]
        tour_d[i:j + 1] = tour_d[i:j + 1][::-1]
        tour_d[:, i:j + 1] = tour_d[:, i:j + 1][:, ::-1]
    return tuple(order.tolist())


def _three_opt_deltas(rows, a, b, c, e, f, g):
    """Deltas of the seven reconnections of edges (a,b), (c,e), (f,g)."""
    base = rows[a][b] + rows[c][e] + rows[f][g]
    return (
        rows[a][c] + rows[b][e] + rows[f][g] - base,  # reverse first segment
        rows[a][b] + rows[c][f] + rows[e][g] - base,  # reverse second segment
        rows[a][f] + rows[c][e] + rows[b][g] - base,  # reverse both as one block
        rows[a][c] + rows[b][f] + rows[e][g] - base,  # reverse each segment
        rows[a][e] + rows[f][b] + rows[c][g] - base,  # exchange segments
        rows[a][e] + rows[f][c] + rows[b][g] - base,  # exchange, first reversed
        rows[a][f] + rows[e][b] + rows[c][g] - base,  # exchange, second reversed
    )


# _three_opt_deltas' cases as (second segment first, first reversed, second reversed)
_RECONNECTIONS = (
    (False, True, False),
    (False, False, True),
    (True, True, True),
    (False, True, True),
    (True, False, False),
    (True, True, False),
    (True, False, True),
)


def _three_opt_rebuild(seg1: list, seg2: list, case: int) -> list:
    swapped, reverse1, reverse2 = _RECONNECTIONS[case]
    first = seg1[::-1] if reverse1 else seg1
    second = seg2[::-1] if reverse2 else seg2
    return second + first if swapped else first + second


def _first_improving_move(order: list, rows, n: int) -> tuple[int, int, int, int] | None:
    """The first cut triple i < j < k, in lexicographic order, with a
    reconnection that beats the tour by more than IMPROVEMENT_EPS, as
    (i, j, k, case) with case the first such reconnection; None if there is
    none."""
    for i in range(n - 2):
        a, b = order[i], order[i + 1]
        for j in range(i + 1, n - 1):
            c, e = order[j], order[j + 1]
            for k in range(j + 1, n):
                f, g = order[k], order[(k + 1) % n]
                deltas = _three_opt_deltas(rows, a, b, c, e, f, g)
                if min(deltas) < -IMPROVEMENT_EPS:
                    case = next(x for x, delta in enumerate(deltas) if delta < -IMPROVEMENT_EPS)
                    return i, j, k, case
    return None


def three_opt(t: Tour, m: DistanceMatrix) -> Tour:
    """First-improvement 3-opt: sweep all cut triples i < j < k in
    lexicographic order, trying the seven reconnection variants (the
    pure-reversal ones coincide with 2-opt moves); apply the first strict
    improvement and restart the sweep. Terminates at 3-opt local optimality.
    """
    n = m.n
    if n < 3:
        return t
    rows = m.rows()
    order = list(t)
    while (move := _first_improving_move(order, rows, n)) is not None:
        i, j, k, case = move
        order[i + 1:k + 1] = _three_opt_rebuild(order[i + 1:j + 1], order[j + 1:k + 1], case)
    return tuple(order)
