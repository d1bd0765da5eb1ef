"""Tour improvement: 2-opt (a neighbour-list sweep, then best-improvement
passes) and 3-opt (first-improvement scans over all cut triples with
restart; from SWEEP_AND_BLOCK_MIN_N cities on, after the 2-opt sweep and an
Or-opt neighbour-list sweep, and in numpy blocks). Both are deterministic
and never return a longer tour than they were given.
"""

from __future__ import annotations

import functools
from collections import deque

import numpy as np

from .instance import NEIGHBORS, DistanceMatrix, Tour, validate_tour

# A move must beat the incumbent by more than _margin(m), at least this, to be
# applied; keeps float noise from causing improvement cycles.
IMPROVEMENT_EPS = 1e-10


def _margin(m: DistanceMatrix) -> float:
    """IMPROVEMENT_EPS, or 2**-48 * D where that is more (D the largest
    distance, above 28,147). A delta of at most six distances rounds within
    13 * 2**-53 * D, so each move made shortens the tour exactly and no
    search can cycle, up to the 1e154 distances Instance takes."""
    scaled = 2.0 ** -48 * m.largest
    return scaled if scaled > IMPROVEMENT_EPS else IMPROVEMENT_EPS


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


@functools.lru_cache(maxsize=8)
def _tour_offsets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat offsets into a row-major n x n matrix P indexed by tour position:
    of P[i-1, j], P[i, j+1] and P[i-1, i] for each of reversal_table(n)'s
    (i, j), and of P[k, k+1], the edge leaving position k, for each k; -1
    and n wrap around; then a copy of the table's j. Cached like the table
    and private to two_opt. The arrays are left writeable, since
    ndarray.take copies a read-only index array on every call, so no caller
    may write to them."""
    i_idx, j_idx, j_next = reversal_table(n)
    i_prev = (i_idx - 1) % n
    k = np.arange(n)
    return (i_prev * n + j_idx, i_idx * n + j_next, i_prev * n + i_idx, k * n + (k + 1) % n,
            j_idx.copy())


def _tour_positions(t: Tour, n: int) -> tuple[list[int], list[int]]:
    """t as a list, and each city's position in it."""
    tour = list(t)
    pos = [0] * n
    for p, c in enumerate(tour):
        pos[c] = p
    return tour, pos


def _dont_look(tour: list[int], improving_move, apply_move) -> None:
    """Drive a first-improvement sweep with don't-look bits: a FIFO queue of
    cities, seeded in tour order. For the city a at the queue's head,
    improving_move(a) gives a move or None; apply_move(move) applies it and
    returns the cities to queue again. Returns when the queue is empty."""
    queue = deque(tour)
    queued = [True] * len(tour)
    while queue:
        a = queue.popleft()
        queued[a] = False
        move = improving_move(a)
        if move is None:
            continue
        for city in apply_move(move):
            if not queued[city]:
                queued[city] = True
                queue.append(city)


def _neighbor_sweep(t: Tour, m: DistanceMatrix) -> list[int]:
    """First-improvement 2-opt over neighbour lists, with don't-look bits
    (_dont_look).

    For the city a at the queue's head and each of its tour neighbours b
    (successor, then predecessor), try each c in a's neighbour list while
    d(a, c) < d(a, b): the move that replaces edges (a, b) and (c, e), with
    e c's neighbour on the same side, by (a, c) and (b, e). Apply the first
    one whose delta, ((ac + be) - ab) - ce, is below -_margin(m), by
    reversing the one of the move's two paths that does not wrap past
    position n-1, and queue its four endpoints again."""
    n = m.n
    rows = m.rows
    near, margin = m.neighbors, _margin(m)
    tour, pos = _tour_positions(t, n)

    def improving_move(a: int) -> tuple[int, int, int, int, int] | None:
        row_a = rows[a]
        i = pos[a]
        for step in (1, -1):
            b = tour[(i + step) % n]
            ab = row_a[b]
            for c in near[a]:
                ac = row_a[c]
                if ac >= ab:
                    break
                e = tour[(pos[c] + step) % n]
                # e == a: the move would add back the two edges it removes
                if e != a and ((ac + rows[b][e]) - ab) - rows[c][e] < -margin:
                    return step, a, b, c, e
        return None

    def apply_move(move: tuple[int, int, int, int, int]) -> tuple[int, int, int, int]:
        step, a, b, c, e = move
        i, j = pos[a], pos[c]
        # successor side: reverse b..c or e..a; predecessor side: a..e or c..b
        if step == 1:
            lo, hi = (i + 1, j) if i < j else (j + 1, i)
        else:
            lo, hi = (i, j - 1) if i < j else (j, i - 1)
        tour[lo:hi + 1] = tour[hi:lo - 1 if lo else None:-1]
        for p in range(lo, hi + 1):
            pos[tour[p]] = p
        return a, b, c, e

    _dont_look(tour, improving_move, apply_move)
    return tour


def _or_opt_sweep(t: Tour, m: DistanceMatrix) -> list[int]:
    """First-improvement Or-opt (Or, 1976) over neighbour lists, with
    don't-look bits (_dont_look). A move takes a segment of one to three cities out of the tour and puts it back, either
    way round, between two other adjacent cities: the 3-opt moves that
    exchange two segments, one of them short.

    For the city a at the queue's head, each segment that starts at a and
    runs one to three cities in either tour direction, to z, between its
    outer neighbours p and q, frees g = (pa + zq) - pq when cut out. For
    each end x of the segment, y the other, try each c in x's neighbour
    list while d(x, c) < g, and each tour neighbour e of c, neither in the
    segment: the move that puts the segment between c and e, x next to c.
    Apply the first one whose delta, ((xc + ye) - ce) - g, is below
    -_margin(m), by rotating the segment past the path between it and
    its new place, on the one of the two sides that does not wrap past
    position n-1, and queue the move's six endpoints again."""
    n = m.n
    rows = m.rows
    near, margin = m.neighbors, _margin(m)
    tour, pos = _tour_positions(t, n)
    # (direction, length) of each segment from a; at least three cities stay
    # outside it, so that it has a place other than back between p and q
    shapes = [(step, length) for length in (1, 2, 3) if length <= n - 3
              for step in ((1,) if length == 1 else (1, -1))]

    def improving_move(a: int) -> tuple[list[int], int, int, int, int, int, int] | None:
        i = pos[a]
        for step, length in shapes:
            segment = [a]
            if length > 1:
                segment.append(tour[(i + step) % n])
                if length > 2:
                    segment.append(tour[(i + 2 * step) % n])
            z = segment[-1]
            p, q = tour[(i - step) % n], tour[(i + length * step) % n]
            gain = (rows[p][a] + rows[z][q]) - rows[p][q]
            for x, y in ((a, z),) if length == 1 else ((a, z), (z, a)):
                row_x, row_y = rows[x], rows[y]
                for c in near[x]:
                    xc = row_x[c]
                    if xc >= gain:
                        break
                    if c in segment:
                        continue
                    k, row_c = pos[c], rows[c]
                    for e in (tour[(k + 1) % n], tour[k - 1]):
                        delta = ((xc + row_y[e]) - row_c[e]) - gain
                        if delta < -margin and e not in segment:
                            return segment, p, q, x, y, c, e
        return None

    def apply_move(move: tuple[list[int], int, int, int, int, int, int]) -> tuple[int, ...]:
        segment, p, q, x, y, c, e = move
        lo, hi = min(pos[s] for s in segment), max(pos[s] for s in segment)
        if hi - lo >= len(segment):  # the segment wraps: turn the list half round
            tour[:] = tour[n // 2:] + tour[:n // 2]
            for k, city in enumerate(tour):
                pos[city] = k
            lo, hi = min(pos[s] for s in segment), max(pos[s] for s in segment)
        # u before v in the list: the segment goes between them, x next to c
        u, v = (c, e) if tour[(pos[c] + 1) % n] == e else (e, c)
        moved = tour[lo:hi + 1]
        if moved[0] != (x if u == c else y):
            moved.reverse()
        if pos[u] > hi:  # segment, path to u -> path to u, segment
            hi = pos[u]
            tour[lo:hi + 1] = tour[lo + len(moved):hi + 1] + moved
        else:  # path from v, segment -> segment, path from v
            lo = pos[v]
            tour[lo:hi + 1] = moved + tour[lo:hi + 1 - len(moved)]
        for k in range(lo, hi + 1):
            pos[tour[k]] = k
        return p, q, segment[0], segment[-1], c, e

    _dont_look(tour, improving_move, apply_move)
    return tour


def two_opt(t: Tour, m: DistanceMatrix) -> Tour:
    """2-opt local search: a neighbour-list sweep, then the passes.

    The sweep (_neighbor_sweep) makes first-improvement moves that join a
    city to one of its NEIGHBORS nearest cities, with don't-look bits: a
    city costs at most 2 * NEIGHBORS delta checks and a move one reversal,
    where a pass costs an O(n^2) scan per move. The sweep can miss moves,
    a new edge beyond the lists or a city whose bit was set when a move
    elsewhere opened one, so the best-improvement passes (_two_opt_passes)
    then scan every segment reversal until none improves: the result is
    2-opt locally optimal over all moves, and from the sweep's tour the
    passes have a few moves left where a random tour needs about n.

    PSO polishes with the passes alone: its tours are already near a 2-opt
    optimum, where the sweep saves nothing, and the sweep's moves would
    change which optimum each polish returns, and so every PSO run.

    Raises InvalidTourError unless t is a permutation of 0..m.n-1. Returns
    plain ints, whatever integer type t holds.
    """
    validate_tour(t, m.n)
    if m.n < 4:
        return tuple(int(c) for c in t)
    return _two_opt_passes(_neighbor_sweep(t, m), m)


def _two_opt_passes(t: Tour, m: DistanceMatrix) -> Tour:
    """Repeat best-improvement passes over all segment reversals (i, j),
    0 <= i < j < n (full-tour reversal excluded), applying the single most
    improving move per pass, until 2-opt locally optimal. Move deltas use
    the four-edge formula; ties go to the lexicographically smallest (i, j).

    The passes read a copy of the matrix permuted into tour order,
    tour_d[r, c] = d[order[r], order[c]], so each delta is gathered from one
    flat array; each move reverses tour_d's rows and columns i..j along with
    the tour. Each delta is d[a, c] + d[b, e] - d[a, b] - d[c, e] for the
    cities a, b, c, e at positions i-1, i, j and j+1, summed in that order
    as SA sums its proposals' deltas, so the moves and the result are the
    same as scanning d.

    t must be a permutation of 0..m.n-1; two_opt checks it.
    """
    n = m.n
    if n < 4:
        return t
    i_idx, margin = reversal_table(n)[0], _margin(m)
    ac, be, ab, edge, j_idx = _tour_offsets(n)

    order = np.array(t, dtype=np.intp)
    tour_d = m.d.take(order, 0).take(order, 1)
    flat = tour_d.reshape(-1)
    while True:
        leaving = flat.take(edge)  # P[k, k+1]: each reversal's edge (j, j+1) is leaving[j]
        delta = flat.take(ac)
        delta += flat.take(be)
        delta -= flat.take(ab)
        delta -= leaving.take(j_idx)
        k = int(delta.argmin())
        if delta[k] >= -margin:
            break
        i, j = int(i_idx[k]), int(j_idx[k])
        order[i:j + 1] = order[i:j + 1][::-1]
        tour_d[i:j + 1] = tour_d[i:j + 1][::-1]
        tour_d[:, i:j + 1] = tour_d[:, i:j + 1][:, ::-1]
    return tuple(order.tolist())


# The seven reconnections of cut edges (a,b), (c,e), (f,g), in the scans'
# case order, as (second segment first, first reversed, second reversed)
_RECONNECTIONS = (
    (False, True, False),  # reverse first segment
    (False, False, True),  # reverse second segment
    (True, True, True),  # reverse both as one block
    (False, True, True),  # reverse each segment
    (True, False, False),  # exchange segments
    (True, True, False),  # exchange, first reversed
    (True, False, True),  # exchange, second reversed
)


def _three_opt_rebuild(seg1: list, seg2: list, case: int) -> list:
    swapped, reverse1, reverse2 = _RECONNECTIONS[case]
    first = seg1[::-1] if reverse1 else seg1
    second = seg2[::-1] if reverse2 else seg2
    return second + first if swapped else first + second


def _first_improving_move(order: list, m: DistanceMatrix) -> tuple[int, int, int, int] | None:
    """The first cut triple i < j < k, in lexicographic order, with a
    reconnection that beats the tour by more than _margin(m), as
    (i, j, k, case) with case the first such reconnection in _RECONNECTIONS'
    order; None if there is none. The pure-Python scan.

    For cut edges (a,b), (c,e), (f,g) leaving positions i, j and k, each
    case's delta is ((x + y) + z) - base, with base = (ab + ce) + fg and
    x, y, z its new edges as _three_opt_rebuild's tour runs them: the sums
    _first_improving_block makes, so both scans make the same moves. An
    edge read the other way round (ce for ec) is the same float, since d is
    symmetric."""
    n = m.n
    rows, bound = m.rows, -_margin(m)
    succ = order[1:] + order[:1]
    edge = [rows[x][y] for x, y in zip(order, succ)]  # the edge leaving each position
    for i in range(n - 2):
        a, b = order[i], succ[i]
        row_a, row_b, ab = rows[a], rows[b], edge[i]
        for j in range(i + 1, n - 1):
            c, e = order[j], succ[j]
            row_c, row_e, ce = rows[c], rows[e], edge[j]
            ab_ce = ab + ce
            ac, ae, be = row_a[c], row_a[e], row_b[e]
            ac_be = ac + be
            for k in range(j + 1, n):
                f, g, fg = order[k], succ[k], edge[k]
                base = ab_ce + fg
                if (ac_be + fg) - base < bound:
                    return i, j, k, 0
                cf, eg = row_c[f], row_e[g]
                if ((ab + cf) + eg) - base < bound:
                    return i, j, k, 1
                af, bg = row_a[f], row_b[g]
                if ((af + ce) + bg) - base < bound:
                    return i, j, k, 2
                bf = row_b[f]
                if ((ac + bf) + eg) - base < bound:
                    return i, j, k, 3
                cg = row_c[g]
                if ((ae + bf) + cg) - base < bound:
                    return i, j, k, 4
                if ((ae + cf) + bg) - base < bound:
                    return i, j, k, 5
                if ((af + be) + cg) - base < bound:
                    return i, j, k, 6
    return None


@functools.lru_cache(maxsize=8)
def _three_opt_offsets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gather table of _first_improving_block for n cities: (offsets, j, k).

    j and k list the pairs 1 <= j < k < n in lexicographic order; the pairs
    of cut triple row i, those with j > i, are the tail from the first pair
    with j = i + 1. offsets[r, t, p] locates, for pair p, edge t of the
    base tour (r = 0) or of reconnection case r - 1 (_RECONNECTIONS'
    order, the scans' case order), in a flat array
    holding the n x n tour-ordered matrix P, then copies of P's rows i and
    i+1, of its column i+1 and of P[i, i+1]. a, b, c, e, f, g are tour
    positions i, i+1, j, j+1, k and k+1 (mod n); each case's three new
    edges are read off _three_opt_rebuild's order of b, c, e, f: a to its
    first letter, the middle junction, and its last letter to g. An edge
    with an end at position i or i+1 is read from the copies, so no offset
    depends on i. O(n^2) entries; cached for a few sizes."""
    j, k = np.triu_indices(n, k=1)
    keep = j >= 1
    j, k = j[keep], k[keep]
    ends = {"c": j, "e": j + 1, "f": k, "g": (k + 1) % n}
    row_a, row_b, column_b, edge_ab = n * n, n * n + n, n * n + 2 * n, n * n + 3 * n
    rebuilt = [["b", "c", "e", "f"]] + [_three_opt_rebuild(["b", "c"], ["e", "f"], case)
                                        for case in range(7)]
    offsets = np.empty((8, 3, len(j)), dtype=np.intp)
    for r, (first, left, right, last) in enumerate(rebuilt):
        for t, (x, y) in enumerate((("a", first), (left, right), (last, "g"))):
            if x + y == "ab":
                offsets[r, t] = edge_ab
            elif x == "a":
                offsets[r, t] = row_a + ends[y]
            elif x == "b":
                offsets[r, t] = row_b + ends[y]
            elif y == "b":
                offsets[r, t] = column_b + ends[x]
            else:
                offsets[r, t] = ends[x] * n + ends[y]
    table = (offsets, j, k)
    for column in table:
        column.setflags(write=False)
    return table


# The block scan's block of cut triples: bounded, for the scratch arrays
# (8 x 3 values per triple).
_BLOCK = 512


def _first_improving_block(order: list, m: DistanceMatrix) -> tuple[int, int, int, int] | None:
    """_first_improving_move's result, from numpy blocks of cut triples.

    Each block is a run of up to _BLOCK consecutive triples of one row i,
    in lexicographic order. Its edges are gathered with _three_opt_offsets'
    table from a copy of the matrix permuted into tour order,
    P[r, c] = d[order[r], order[c]], followed by P's rows i and i+1, column
    i+1 and P[i, i+1], and added up term for term as _first_improving_move
    adds them, base = (ab + ce) + fg and ((x + y) + z) - base for each case,
    so the deltas are the same floats. The scan stops at the first block
    that holds an improving triple."""
    n = m.n
    offsets, j_idx, k_idx = _three_opt_offsets(n)
    margin = _margin(m)
    tour = np.array(order, dtype=np.intp)
    n2 = n * n
    src = np.empty(n2 + 3 * n + 1)
    tour_d = src[:n2].reshape(n, n)
    tour_d[:] = m.d.take(tour, 0).take(tour, 1)
    start = 0  # row i's first pair: the first with j = i + 1
    for i in range(n - 2):
        src[n2:n2 + 2 * n] = src[i * n:(i + 2) * n]  # rows i and i + 1
        src[n2 + 2 * n:n2 + 3 * n] = tour_d[:, i + 1]
        src[-1] = tour_d[i, i + 1]
        for lo in range(start, len(j_idx), _BLOCK):
            edges = src.take(offsets[:, :, lo:lo + _BLOCK])
            sums = edges[:, 0] + edges[:, 1]
            sums += edges[:, 2]
            deltas = sums[1:]
            deltas -= sums[0]
            if deltas.min() < -margin:
                improving = deltas < -margin
                t = int(improving.any(axis=0).argmax())
                return i, int(j_idx[lo + t]), int(k_idx[lo + t]), int(improving[:, t].argmax())
        start += n - 2 - i
    return None


# From this many cities on, three_opt sweeps neighbour lists and then scans
# in numpy blocks, and PSO's 3-opt polish block-scans; below it the
# pure-Python scans run alone, a whole scan there costing less than a few
# numpy blocks and the sweeps more than the scan time they save. 10 is the
# measured crossover of three_opt from random start tours, see CHANGES.md.
SWEEP_AND_BLOCK_MIN_N = 10


def three_opt(t: Tour, m: DistanceMatrix) -> Tour:
    """3-opt local search: the 2-opt sweep, then the Or-opt sweep, then the
    certifying scans.

    From SWEEP_AND_BLOCK_MIN_N cities on, the 2-opt neighbour-list sweep
    (_neighbor_sweep) and then the Or-opt one (_or_opt_sweep) make most of
    the moves, each for a few delta checks per city, where a scan costs up
    to O(n^3) per move. Every move they make is a 3-opt move. They can miss
    moves, so the first-improvement scans (_three_opt_scans) then try all
    cut triples until none improves: the result is 3-opt locally optimal
    over all cut triples and reconnections. Below SWEEP_AND_BLOCK_MIN_N the
    scans run alone: there the sweeps cost more than the scan time they
    save.

    PSO polishes with the scans alone, as it does with 2-opt's passes: the
    sweeps' moves would change which optimum each polish returns, and so
    every PSO run.

    Raises InvalidTourError unless t is a permutation of 0..m.n-1. Returns
    plain ints, whatever integer type t holds.
    """
    validate_tour(t, m.n)
    tour = [int(c) for c in t]
    if m.n >= SWEEP_AND_BLOCK_MIN_N:
        tour = _or_opt_sweep(_neighbor_sweep(tour, m), m)
    return _three_opt_scans(tour, m)


def _three_opt_scans(t: Tour, m: DistanceMatrix) -> Tour:
    """First-improvement 3-opt: scan all cut triples i < j < k in
    lexicographic order, trying the seven reconnection variants (the
    pure-reversal ones coincide with 2-opt moves); apply the first strict
    improvement and restart the scan. Terminates at 3-opt local optimality.

    From SWEEP_AND_BLOCK_MIN_N cities on, each scan computes the deltas of
    blocks of consecutive triples at once with numpy
    (_first_improving_block), gathered from a copy of the matrix permuted
    into tour order that is rebuilt for each scan, so after each applied
    move. Below that size a scan runs in pure Python (_first_improving_move).
    Both add each delta's terms in the same order and return the same first
    improving triple and reconnection, so the moves and the result do not
    depend on which one ran.

    t must be a permutation of 0..m.n-1; three_opt checks it.
    """
    scan = _first_improving_move if m.n < SWEEP_AND_BLOCK_MIN_N else _first_improving_block
    order = list(t)
    while (move := scan(order, m)) is not None:
        i, j, k, case = move
        order[i + 1:k + 1] = _three_opt_rebuild(order[i + 1:j + 1], order[j + 1:k + 1], case)
    return tuple(order)
