"""Comparison solvers sharing the tour/matrix substrate: a genetic algorithm
(order crossover, swap mutation, tournament selection, elitism) and
simulated annealing (random 2-opt reversal neighborhood, Metropolis
acceptance, geometric cooling). Both are deterministic per seed.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import MAX_POPULATION, MAX_TEMPERATURE_LEVELS, ConfigError, check_types
from .instance import (DistanceMatrix, Instance, RunResult, Tour, cycle_length, cycle_lengths,
                       random_tour, run_search)
from .localsearch import reversal_table


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    generations: int = 200
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    tournament_k: int = 3
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        check_types(self)
        if self.population < 1 or self.generations < 1:
            raise ConfigError("population and generations must be >= 1")
        if self.population > MAX_POPULATION:
            raise ConfigError(f"population must be <= {MAX_POPULATION}")
        if not 0.0 <= self.crossover_rate <= 1.0 or not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError("crossover_rate and mutation_rate must be in [0, 1]")
        if not 1 <= self.tournament_k <= self.population:
            raise ConfigError("tournament_k must be in 1..population")
        if not 0 <= self.elitism <= self.population:
            raise ConfigError("elitism must be in 0..population")


@dataclass(frozen=True)
class SaConfig:
    initial_temp: float | None = field(default=None, metadata={
        "help": "starting temperature (default: auto from sampled deltas)"})
    cooling: float = 0.995
    iters_per_temp: int | None = field(default=None, metadata={
        "help": "proposals per temperature level (default: n^2)"})
    min_temp: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_types(self)
        if not 0.0 < self.cooling < 1.0:
            raise ConfigError("cooling must be in (0, 1)")
        if self.min_temp <= 0:
            raise ConfigError("min_temp must be > 0")
        if self.initial_temp is not None:
            if self.initial_temp <= 0:
                raise ConfigError("initial_temp must be > 0 (or None for AUTO)")
            if self.min_temp >= self.initial_temp:
                raise ConfigError("min_temp must be below initial_temp")
        if self.iters_per_temp is not None and not 1 <= self.iters_per_temp <= sys.maxsize:
            raise ConfigError(f"iters_per_temp must be in [1, {sys.maxsize}] (numpy's int64 limit)")


def order_crossover(p1: Tour, p2: Tour, cut_l: int, cut_r: int) -> Tour:
    """OX1: the child keeps p1[cut_l:cut_r] in place; remaining positions are
    filled cyclically from position cut_r with p2's cities in cyclic order
    starting at index cut_r, skipping cities already present."""
    n = len(p1)
    if len(p2) != n:
        raise ValueError(f"parent sizes differ: {n} vs {len(p2)}")
    if not 0 <= cut_l < cut_r <= n:
        raise ValueError(f"cuts must satisfy 0 <= cut_l < cut_r <= n, got ({cut_l}, {cut_r})")
    segment = p1[cut_l:cut_r]
    placed = set(segment)
    fill = tuple(city for city in p2[cut_r:] + p2[:cut_r] if city not in placed)
    wrap = n - cut_r  # cities that land on positions cut_r..n-1
    return fill[wrap:] + segment + fill[:wrap]


def swap_mutation(t: Tour, rng: random.Random) -> Tour:
    """Swap two distinct uniform positions (two draws: first position, then
    an offset that skips it)."""
    n = len(t)
    if n < 2:
        raise ValueError("swap mutation needs at least two cities")
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    order = list(t)
    order[i], order[j] = order[j], order[i]
    return tuple(order)


@functools.lru_cache(maxsize=8)
def _crossover_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """order_crossover_rows' two (n + 1, n) read-only tables: row s of the
    first holds the positions 0..n-1 rotated left by s, and row L of the
    second 1 at the first n - L of them and 0 at the rest. Cached for a few
    sizes, like reversal_table, so a GA run does not rebuild them."""
    s, c = np.arange(n + 1)[:, None], np.arange(n)
    tables = (s + c) % n, (c < n - s).astype(np.intp)
    for table in tables:
        table.setflags(write=False)
    return tables


class CrossoverWork:
    """The workspaces of order_crossover_rows for arrays of up to `rows`
    rows of n cities, allocated once, so that a GA that crosses over every
    generation allocates no array of that size."""

    def __init__(self, rows: int, n: int):
        self.rotations, self.heads = _crossover_tables(n)
        self.offsets = np.repeat(np.arange(rows) * n, n).reshape(rows, n)  # row r: r * n
        self.positions, self.flat, self.cities, self.flags, self.outside = \
            np.empty((5, rows, n), np.intp)
        self.child = np.empty(rows * n + 1, np.intp)  # slot 0 takes the writes no row keeps


def order_crossover_rows(children: np.ndarray, rows: np.ndarray, parents: np.ndarray,
                         mates: np.ndarray, cut_l: np.ndarray, cut_r: np.ndarray,
                         work: CrossoverWork | None = None) -> None:
    """order_crossover in place on some rows of a (C, n) array: for each r,
    row rows[r] of children (parent 1, distinct rows) becomes its child with
    row mates[r] of parents (parent 2), with cuts cut_l[r] and cut_r[r].
    work is a CrossoverWork for at least as many rows as children and
    parents have; one is allocated if it is None.

    Positions and cities are read in coordinates rotated left by cut_r, where
    parent 1's segment is the tail of length L = cut_r - cut_l and the fill
    positions are the head, of length n - L. Both parents are gathered in
    rotated order through flat indices (row * n + column). A row's head then
    gets parent 2's cities that are not in the segment, in order: the k-th
    of them goes to head position k - 1, k counted by a row-wise cumsum, and
    every other city to a slot no row reads. The child is scattered back to
    its row. Every (C, n) step writes into work."""
    count, n = len(rows), children.shape[1]
    if not children.flags.c_contiguous:
        raise ValueError("children must be C-contiguous: the child rows are written flat")
    if work is None:
        work = CrossoverWork(max(len(children), len(parents)), n)
    local = work.offsets[:count]  # row r's offset in the (count, n) workspaces
    positions, flat, cities, flags = (
        a[:count] for a in (work.positions, work.flat, work.cities, work.flags))
    child = work.child[1:count * n + 1].reshape(count, n)
    outside = work.outside.reshape(-1)
    # take writes into out without buffering only with mode="clip"; every
    # index here is in range, so it clips nothing
    work.rotations.take(cut_r, axis=0, out=positions, mode="clip")
    work.heads.take(cut_r - cut_l, axis=0, out=flags, mode="clip")
    work.offsets.take(rows, axis=0, out=flat, mode="clip")
    flat += positions
    children.take(flat, out=child, mode="clip")  # parent 1, rotated
    np.add(child, local, out=cities)
    outside[cities] = flags  # at (r, city): 1 if city is not in row r's segment
    work.offsets.take(mates, axis=0, out=cities, mode="clip")
    positions += cities
    parents.take(positions, out=cities, mode="clip")  # parent 2, rotated
    np.add(cities, local, out=positions)
    outside.take(positions, out=flags, mode="clip")
    np.cumsum(flags, axis=1, out=positions)
    positions += local
    positions *= flags  # 1 + r * n + head position for the kept cities, 0 for the rest
    work.child[positions] = cities
    children.reshape(-1)[flat] = child


def swap_mutation_rows(tours: np.ndarray, rows: np.ndarray, gen: np.random.Generator) -> None:
    """swap_mutation in place on the given distinct rows of a (C, n) array,
    n >= 2: two distinct uniform positions per row, drawn the same way from
    gen, all first positions and then all offsets."""
    n = tours.shape[1]
    i = gen.integers(n, size=len(rows))
    j = gen.integers(n - 1, size=len(rows))
    j += j >= i
    offsets = rows * n
    i += offsets
    j += offsets
    first = tours.take(i)
    tours.put(i, tours.take(j))
    tours.put(j, first)


def tournament_winners(draws: np.ndarray, ranked: np.ndarray,
                       work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Per row of a (T, k) array of drawn population indices, the one that
    comes first in ranked, the population in (cost, index) order (the
    stable argsort of the costs). work, if given, is a pair made once per
    run: an intp array the size of ranked, that each index's rank is
    written into, and np.arange(ranked.size)."""
    rank, positions = work if work is not None else (np.empty_like(ranked),
                                                     np.arange(ranked.size))
    rank[ranked] = positions
    return ranked.take(np.minimum.reduce(rank.take(draws), axis=1))


def run_ga(instance: Instance, cfg: GaConfig) -> RunResult:
    """Generational GA. Per generation: carry the elite, then fill with
    offspring (tournament parents; OX1 with probability crossover_rate, else
    a copy of parent 1; swap mutation with probability mutation_rate).
    Tracks the best-ever tour, whose cost run_search records at the start
    and once per generation, so the history never increases.

    The initial population comes from random_tour on random.Random(seed).
    Every later draw comes from a numpy Generator seeded by the next 64 bits
    of that stream, and each generation is made at once on a (P, n) array:
    one draw each for all tournaments, crossover and mutation coins, cuts
    and swap positions, with the same distributions as order_crossover and
    swap_mutation. The elites and children are gathered into a second
    population buffer, crossed over, mutated and scored there in place, and
    the two buffers swap; these and every workspace are allocated once per
    run. Costs come from cycle_lengths, so every recorded cost is the
    sequential sum cycle_length gives.
    """
    return run_search(instance, cfg, _ga_search)


def _ga_search(instance: Instance, cfg: GaConfig, m: DistanceMatrix, rng: random.Random):
    n, size = instance.n, cfg.population
    elite, count = cfg.elitism, size - cfg.elitism
    # Every generation is made in these buffers, allocated once per run: a
    # generation that allocated its (P, n) arrays afresh page-faulted them
    # in, as the C allocator hands a freed heap top back to the system.
    spare = np.empty((size, n), np.intp)
    scoring = np.empty((size, n), np.intp), np.empty((size, n))
    work = CrossoverWork(size, n)
    ranks = np.empty(size, np.intp), np.arange(size)

    population = np.array([random_tour(n, rng) for _ in range(size)], dtype=np.intp)
    costs = cycle_lengths(population, m.d, scoring).copy()
    spare_costs = np.empty_like(costs)
    scoring = tuple(a[:count] for a in scoring)
    gen = np.random.default_rng(rng.getrandbits(64))
    evaluations = size

    best = costs.argmin()
    best_tour, best_cost = tuple(population[best].tolist()), float(costs[best])
    yield best_tour, best_cost, evaluations

    for _ in range(cfg.generations):
        ranked = costs.argsort(kind="stable")
        kept = ranked[:elite]
        draws = gen.integers(size, size=(2 * count, cfg.tournament_k))
        parents = tournament_winners(draws, ranked, ranks)
        population.take(kept, axis=0, out=spare[:elite], mode="clip")
        costs.take(kept, out=spare_costs[:elite], mode="clip")
        children = spare[elite:]
        population.take(parents[:count], axis=0, out=children, mode="clip")
        crossed = (gen.random(count) < cfg.crossover_rate).nonzero()[0]
        cut_l = gen.integers(n, size=crossed.size)
        cut_r = gen.integers(cut_l + 1, n + 1)
        order_crossover_rows(children, crossed, population, parents[count + crossed],
                             cut_l, cut_r, work)
        if n >= 2:
            mutated = (gen.random(count) < cfg.mutation_rate).nonzero()[0]
            swap_mutation_rows(children, mutated, gen)
        spare_costs[elite:] = cycle_lengths(children, m.d, scoring)
        population, spare = spare, population
        costs, spare_costs = spare_costs, costs
        evaluations += count
        best = costs.argmin()
        if costs[best] < best_cost:
            best_tour, best_cost = tuple(population[best].tolist()), float(costs[best])
        yield best_tour, best_cost, evaluations


def sa_accept(delta: float, threshold: float) -> bool:
    """Metropolis rule: a move passes iff delta < threshold. Against
    sa_thresholds(temp, u), improving moves always pass and a worsening move
    passes with probability exp(-delta/temp)."""
    return delta < threshold


def sa_thresholds(temp: float | np.ndarray, u: np.ndarray) -> np.ndarray:
    """-temp * log1p(-u) for uniform draws u in [0, 1), with one temperature
    for all draws or one per draw: exponential with mean temp, so
    P(delta < threshold) = min(1, exp(-delta/temp))."""
    thresholds = np.log1p(-u)
    thresholds *= -temp
    return thresholds


# Proposals drawn per numpy call; bounds memory whatever the run's length.
SA_BLOCK = 1 << 12
# A level runs in numpy chunks when the level before it accepted a move less
# often than once in this many proposals. Scoring one 1500-proposal level of
# berlin52 both ways, from a 2-opt optimum, numpy took 1.3-1.6 times the
# scalar loop's time at 45 proposals per accept, 0.8-1.05 times at 93 and
# 0.6-0.75 times at 125 (shared 2-CPU machine). 96 also lies above 81, the
# longest default level at up to 9 cities, so those always run scalar.
SA_COLD_GAP = 96
# A new best is recorded without a re-score when the running cost `current`
# lies below the best by more than this bound on its drift from
# cycle_length(order), in units of u * dmax (u = 2**-53, dmax the largest
# distance). build_distance_matrix gives finite, non-negative and exactly
# symmetric distances ((xi - xj)**2 is (xj - xi)**2 bit for bit), so a
# reversal changes the real tour length L by exactly ac + be - ab - ce, and
# L <= n * dmax. With gamma_k = k*u / (1 - k*u), the recursive-summation bound
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002):
# - cycle_length sums n terms, so it is within gamma_n * n * dmax of L, both
#   at the level's start, where `current` is read from it, and for the order
#   it is compared with: 2 * gamma_n * n * dmax <= 2.02 * n*n * u * dmax
#   (n * u < 0.01 at any n a matrix fits in memory for);
# - each delta, ((ac + be) - ab) - ce, is within 4 * gamma_3 * dmax of the real
#   change, and adding it to `current` rounds by at most u * |current|, below
#   2 * n * u * dmax while the drift is below n * dmax: by induction, this
#   bound keeps it there for 10**14 accepted moves in a level, beyond any run.
# So after k accepted moves the drift is at most 4 * (n*n + k*(n + 4)) * u *
# dmax. The slack used is twice that, so that rounding the comparisons
# themselves (a few u times a cost, far below the bound) cannot flip one.
# The bound starts from 0 at each level, where `current` is re-scored. These
# bounds need no overflow and no loss to underflow: Instance refuses
# coordinates whose squared distance overflows, so a distance is below 1.4e154
# and no sum of n of them overflows; a nonzero distance is at least 2.2e-162,
# the square root of the least subnormal, so the slack stays a normal float;
# and sums and differences round within u also when their result is subnormal.
SA_DRIFT_ULPS = 8.0


def run_sa(instance: Instance, cfg: SaConfig) -> RunResult:
    """Simulated annealing from a random tour.

    Proposals are uniform segment reversals (i, j), i < j, but the full-tour
    one, from localsearch.reversal_table. AUTO initial temperature is the
    spread (population standard deviation) of 100 sampled proposal deltas at
    the starting tour. Each temperature level runs iters_per_temp proposals,
    then multiplies the temperature by the cooling factor; the run stops at
    min_temp. A schedule of more than MAX_TEMPERATURE_LEVELS levels raises
    ConfigError before the first proposal. run_search records the best-ever
    cost at the start and once per level. Evaluation counts include every
    proposed neighbor.

    The starting tour comes from random_tour on random.Random(seed). Every
    later draw comes from a numpy Generator seeded by the next 64 bits of
    that stream: the AUTO samples, then the run's proposals as one stream of
    blocks (_sa_proposals). Each level reads on where the one before it
    stopped, up to a block's end at a time. The current tour is re-scored
    with cycle_length at the end of each level, to shed the drift of summed
    deltas. A new best is recorded as a re-score at once would record it,
    but re-scored only at the level's end: a tour whose summed cost lies
    below the best by more than the drift bound (SA_DRIFT_ULPS) is certain
    to be recorded, so it is kept pending; a comparison the bound cannot
    decide re-scores the pending tour, then the current one, at once.

    Each level runs one of three paths. The first level, and any level whose
    previous level accepted moves at least once per SA_COLD_GAP proposals
    (iters // (accepts + 1) < SA_COLD_GAP), runs the scalar loop over the
    block's columns as lists: one proposal at a time, through sa_accept. A
    colder level is scored in numpy chunks of twice that gap
    (_sa_cold_passes), which drops the rejected proposals in bulk, and the
    loop runs only on those that pass. Default levels at up to 9 cities
    never run in numpy: they hold n * n <= 81 < SA_COLD_GAP proposals, and
    the two reversals of n - 1 cities, which only reflect the cycle and
    change its length by a rounding error at most, are accepted every few
    proposals even when nothing else is.

    In a run whose levels hold at least as many proposals as there are
    reversals, a scalar level whose previous level accepted no move that
    changed the cycle, only reflections, is screened (_sa_screened): the
    least delta of any reversal of the current cycle but the reflections
    (_sa_floor), computed in numpy once per cycle, rejects every proposal
    whose threshold is at most it, and the loop runs only on the rest and
    the reflections. Accepting a reflection keeps the cycle and so the floor;
    once the level accepts a move that changes the cycle, the rest of it
    runs unscreened. Every path sums each delta in the same order, so the
    result is the same bit for bit.
    """
    return run_search(instance, cfg, _sa_search)


def _sa_proposals(gen: np.random.Generator, table, temps: list, iters: int):
    """The proposals of a run of len(temps) levels of iters each, in blocks
    of min(SA_BLOCK, proposals left), each block four arrays: i, j,
    (j + 1) % n and threshold. A block draws its proposal indices into table
    first, then as many uniforms u. Proposal p belongs to level
    l = p // iters, and its threshold is sa_thresholds(temps[l], u), so one
    block can span many short levels."""
    total = len(temps) * iters
    temps = np.array(temps)
    for done in range(0, total, SA_BLOCK):
        end = min(done + SA_BLOCK, total)
        k = gen.integers(len(table[0]), size=end - done)
        thresholds = sa_thresholds(temps[np.arange(done, end) // iters], gen.random(end - done))
        yield (*(column[k] for column in table), thresholds)


def _reversal_ends(i, j, jn) -> np.ndarray:
    """The tour positions of the ends of the four edges of reversals (i, j)
    with jn = (j + 1) % n, as an (8, len(i)) array: a, b, a, c, then c, e,
    b, e, so that _edge_lengths gives ac, be, ab and ce."""
    return np.stack((i - 1, i, i - 1, j, j, jn, i, jn))


def _edge_lengths(tour: np.ndarray, flat: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The four distances ac, be, ab and ce of each reversal whose
    _reversal_ends are ends, in tour, from flat, the distance matrix's flat
    view, as a (4, k) array."""
    cities = tour.take(ends)
    edges, heads = cities[:4], cities[4:]
    edges *= len(tour)
    edges += heads
    return flat.take(edges)


@functools.lru_cache(maxsize=8)
def _floor_ends(n: int) -> np.ndarray:
    """The _reversal_ends of every reversal_table(n) entry but the two that
    only reflect the cycle (j - i == n - 2). Cached for a few sizes, like
    reversal_table, and built only once a run screens a level. Left
    writeable, since ndarray.take copies a read-only index array on every
    call, so no caller may write to it."""
    table = reversal_table(n)
    return _reversal_ends(*(column[table[1] - table[0] != n - 2] for column in table))


def _sa_floor(tour: np.ndarray, flat: np.ndarray) -> float:
    """The least delta of any reversal of the cycle tour, read from any city
    in either direction, but the two that only reflect it. Such a reversal,
    in any reading, removes and adds the same four edges as one of the
    _floor_ends entries in tour or as its complement. The distances are
    exactly symmetric and + commutes, so its delta is one of the two sums
    taken here for that entry: ((ac + be) - ab) - ce, or ((ac + be) - ce) -
    ab where ab and ce swap roles. At 3 cities every reversal reflects the
    cycle; the largest float then stands for the least of none."""
    ac, be, ab, ce = _edge_lengths(tour, flat, _floor_ends(len(tour)))
    added = ac + be
    return float(min((added - ab - ce).min(initial=sys.float_info.max),
                     (added - ce - ab).min(initial=sys.float_info.max)))


def _sa_screened(order: list, floor: float, keys: np.ndarray, columns: list, at: int,
                 stop: int):
    """The proposals at..stop - 1 of a block, given as lists i, j, jn and
    threshold (columns), that the scalar loop must score, as (i, j, jn,
    threshold) tuples: those whose key, the threshold or inf for the two
    reflections, exceeds floor (_sa_floor of the current cycle). Any other
    has a delta of at least floor and a threshold of at most floor, so it
    fails delta < threshold and changes nothing. Once the loop accepts a
    move that changes the cycle (it has reversed it in order by the time
    the next proposal is asked for), floor no longer holds, and every
    proposal after it is yielded."""
    ci, cj, cjn, ct = columns
    flip = len(order) - 2
    for p in (keys[at:stop] > floor).nonzero()[0].tolist():
        p += at
        i, j = ci[p], cj[p]
        city = order[i]
        yield i, j, cjn[p], ct[p]
        if j - i != flip and order[i] != city:
            yield from zip(ci[p + 1:stop], cj[p + 1:stop], cjn[p + 1:stop], ct[p + 1:stop])
            return


def _sa_cold_passes(tour: np.ndarray, flat: np.ndarray, i, j, jn, thresholds, chunk: int):
    """The proposals of a stretch (arrays i, j, jn and thresholds) that pass,
    in order, as (i, j, jn, threshold) tuples. The deltas of chunk proposals
    at a time are scored at once against tour, a numpy copy of the current
    order, from flat, the distance matrix's flat view. The first that passes
    is reversed into tour and yielded, and scoring resumes right after it.
    Each delta is summed in the scalar loop's order, ((ac + be) - ab) - ce,
    so it is the same float and the same proposals pass."""
    ends = _reversal_ends(i, j, jn)
    start, size = 0, len(i)
    while start < size:
        part = slice(start, min(start + chunk, size))
        ac, be, ab, ce = _edge_lengths(tour, flat, ends[:, part])
        delta = ac + be
        delta -= ab
        delta -= ce
        passed = delta < thresholds[part]
        first = int(passed.argmax())
        if not passed[first]:
            start = part.stop
            continue
        p = start + first
        lo, hi = int(i[p]), int(j[p])
        tour[lo:hi + 1] = tour[lo:hi + 1][::-1]
        yield lo, hi, int(jn[p]), float(thresholds[p])
        start = p + 1


def _sa_search(instance: Instance, cfg: SaConfig, m: DistanceMatrix, rng: random.Random):
    rows = m.rows
    n = instance.n

    order = list(random_tour(n, rng))
    current = cycle_length(order, rows)
    evaluations = 1
    best_tour, best_cost = tuple(order), current
    yield best_tour, best_cost, evaluations
    if n <= 2:  # no non-degenerate reversal exists
        return
    gen = np.random.default_rng(rng.getrandbits(64))
    table = reversal_table(n)
    if cfg.initial_temp is not None:
        temp = cfg.initial_temp
    else:
        k = gen.integers(len(table[0]), size=100)
        samples = []
        for i, j, jn in zip(*(column[k].tolist() for column in table)):
            a, b, c, e = order[i - 1], order[i], order[j], order[jn]
            samples.append(rows[a][c] + rows[b][e] - rows[a][b] - rows[c][e])
        temp = statistics.pstdev(samples)

    temps = []  # each level's temperature
    while temp > cfg.min_temp:
        if len(temps) == MAX_TEMPERATURE_LEVELS:
            raise ConfigError(f"the cooling schedule has more than {MAX_TEMPERATURE_LEVELS} "
                              "temperature levels; lower cooling or raise min_temp")
        temps.append(temp)
        temp *= cfg.cooling
    iters = cfg.iters_per_temp if cfg.iters_per_temp is not None else n * n
    flat = m.d.ravel()
    unit = SA_DRIFT_ULPS * 2.0 ** -53 * m.largest  # the slack's unit; see SA_DRIFT_ULPS
    # A cursor on the run's one stream of proposal blocks: the current block,
    # its columns as lists ci, cj, cjn and ct (made on the first scalar stretch
    # that reads it) and its keys for _sa_screened (on the first screened
    # one), its next proposal's index `at` and its length `end`.
    blocks, at, end = _sa_proposals(gen, table, temps, iters), 0, 0
    flip = n - 2  # j - i of the two reversals that only reflect the cycle
    # A scalar level is screened (_sa_screened) when the level before it
    # accepted no move that changed the cycle, if a level holds at least as
    # many proposals as a floor reads reversals: with 7 proposals per level
    # at 1000 uniform cities, the floors made a default run 17 times slower.
    # floor is _sa_floor of the current cycle, computed once per cycle, or
    # None once the cycle changed.
    screens = iters >= len(table[0])
    floor, moved = None, True
    accepts = iters  # the first level runs scalar, unscreened
    for _ in temps:
        gap = iters // (accepts + 1)  # the previous level's mean proposals per accept
        if moved:
            floor = None
        screened = screens and gap < SA_COLD_GAP and not moved
        if screened and floor is None:
            floor = _sa_floor(np.array(order), flat)
        accepts, moved = 0, False
        # The exact cost of the best so far lies in [low, high]: it is
        # best_cost, or that of the pending tour, a new best made certain by
        # the drift bound, held as (tour, accepts) and re-scored at the level's end
        pending, low, high = None, best_cost, best_cost
        tour = np.array(order) if gap >= SA_COLD_GAP else None  # a cold level's numpy order
        left = iters
        while left:
            if at == end:
                block, ci, keys, at = next(blocks), None, None, 0
                end = len(block[0])
            stop = min(end, at + left)
            if tour is not None:  # only its passing proposals, scored in numpy
                stretch = _sa_cold_passes(tour, flat, *(column[at:stop] for column in block),
                                          2 * gap)
            else:
                if ci is None:
                    ci, cj, cjn, ct = columns = [column.tolist() for column in block]
                if screened and not moved:  # the floor still holds
                    if keys is None:
                        keys = np.where(block[1] - block[0] == flip, np.inf, block[3])
                    stretch = _sa_screened(order, floor, keys, columns, at, stop)
                else:
                    stretch = zip(ci[at:stop], cj[at:stop], cjn[at:stop], ct[at:stop])
            left, at = left - (stop - at), stop
            for i, j, jn, threshold in stretch:
                a, b, c, e = order[i - 1], order[i], order[j], order[jn]
                delta = rows[a][c] + rows[b][e] - rows[a][b] - rows[c][e]
                if sa_accept(delta, threshold):
                    order[i:j + 1] = order[i:j + 1][::-1]
                    current += delta
                    accepts += 1
                    if j - i != flip:
                        moved = True
                    if current < high:
                        slack = unit * (n * n + accepts * (n + 4))
                        if current + slack < low:  # so cycle_length(order) < low: a new best
                            pending = tuple(order), accepts
                            low, high = current - slack, current + slack
                        else:  # a near tie: settle it as re-scoring each new best at once would
                            if pending is not None:
                                best_tour, pending = pending[0], None
                                best_cost = cycle_length(best_tour, rows)
                            if current < best_cost:
                                actual = cycle_length(order, rows)
                                if actual < best_cost:
                                    best_tour, best_cost = tuple(order), actual
                            low = high = best_cost
        evaluations += iters
        # shed accumulated float drift; the pending tour's score serves when it is the order
        if pending is None:
            current = cycle_length(order, rows)
        else:
            best_tour, best_cost = pending[0], cycle_length(pending[0], rows)
            current = best_cost if pending[1] == accepts else cycle_length(order, rows)
        yield best_tour, best_cost, evaluations
