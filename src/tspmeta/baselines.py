"""Comparison solvers sharing the tour/matrix substrate: a genetic algorithm
(order crossover, swap mutation, tournament selection, elitism) and
simulated annealing (random 2-opt reversal neighborhood, Metropolis
acceptance, geometric cooling). Both are deterministic per seed.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_types
from .instance import (DistanceMatrix, Instance, RunResult, Tour, cycle_length, cycle_lengths,
                       random_tour, run_search)
from .localsearch import reversal_deltas, reversal_table


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
        if self.iters_per_temp is not None and self.iters_per_temp < 1:
            raise ConfigError("iters_per_temp must be >= 1 when set")


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


def order_crossover_rows(p1: np.ndarray, p2: np.ndarray,
                         cut_l: np.ndarray, cut_r: np.ndarray) -> np.ndarray:
    """order_crossover applied row by row to (C, n) parent arrays with
    per-row cuts. Works in coordinates rotated left by cut_r, where p1's
    segment is the tail of length L = cut_r - cut_l and the fill (p2's
    cities in cyclic order from cut_r, minus the segment's) is the head.
    Indices are flat (row * n + column): one take or put per gather."""
    count, n = p1.shape
    pos = np.arange(n)
    base = (np.arange(count) * n)[:, None]
    rotate = pos + cut_r[:, None]
    np.subtract(rotate, n, out=rotate, where=rotate >= n)  # cheaper than % n
    rotate += base
    rotated = p1.take(rotate)
    rot2 = p2.take(rotate)
    head = pos < (n - cut_r + cut_l)[:, None]
    in_segment = np.empty(p1.size, dtype=bool)  # flat (row, city)
    in_segment[base + rotated] = ~head
    # boolean indexing reads row-major, so each row's kept cities keep
    # their order and fill exactly that row's n - L head positions
    rotated[head] = rot2[~in_segment[base + rot2]]
    child = np.empty_like(rotated)
    child.put(rotate, rotated)
    return child


def swap_mutation_rows(tours: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """swap_mutation applied to each row of a (C, n) array, n >= 2: two
    distinct uniform positions per row, drawn the same way from gen."""
    count, n = tours.shape
    rows = np.arange(count)
    i = gen.integers(n, size=count)
    j = gen.integers(n - 1, size=count)
    j += j >= i
    out = tours.copy()
    out[rows, i], out[rows, j] = tours[rows, j], tours[rows, i]
    return out


def tournament_winners(draws: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """Per row of a (T, k) array of drawn population indices, the one that
    comes first in ranked, the population in (cost, index) order (the
    stable argsort of the costs)."""
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(ranked.size)
    return ranked[rank[draws].min(axis=1)]


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
    swap_mutation. Costs come from cycle_lengths, so every recorded cost is
    the sequential sum cycle_length gives.
    """
    return run_search(instance, cfg, _ga_search)


def _ga_search(instance: Instance, cfg: GaConfig, m: DistanceMatrix, rng: random.Random):
    n, size = instance.n, cfg.population
    elite, count = cfg.elitism, size - cfg.elitism

    population = np.array([random_tour(n, rng) for _ in range(size)], dtype=np.intp)
    costs = cycle_lengths(population, m.d)
    gen = np.random.default_rng(rng.getrandbits(64))
    evaluations = size

    best = int(np.argmin(costs))
    best_tour, best_cost = tuple(population[best].tolist()), float(costs[best])
    yield best_tour, best_cost, evaluations

    for _ in range(cfg.generations):
        ranked = np.argsort(costs, kind="stable")
        kept = ranked[:elite]
        draws = gen.integers(size, size=(2 * count, cfg.tournament_k))
        parents = tournament_winners(draws, ranked)
        children = population[parents[:count]]
        crossed = np.flatnonzero(gen.random(count) < cfg.crossover_rate)
        cut_l = gen.integers(n, size=crossed.size)
        cut_r = gen.integers(cut_l + 1, n + 1)
        children[crossed] = order_crossover_rows(
            children[crossed], population[parents[count:][crossed]], cut_l, cut_r)
        if n >= 2:
            mutated = np.flatnonzero(gen.random(count) < cfg.mutation_rate)
            children[mutated] = swap_mutation_rows(children[mutated], gen)
        population = np.concatenate((population[kept], children))
        costs = np.concatenate((costs[kept], cycle_lengths(children, m.d)))
        evaluations += count
        best = int(np.argmin(costs))
        if costs[best] < best_cost:
            best_tour, best_cost = tuple(population[best].tolist()), float(costs[best])
        yield best_tour, best_cost, evaluations


def sa_accept(delta: float, threshold: float) -> bool:
    """Metropolis rule: a move passes iff delta < threshold. Against
    sa_thresholds(temp, u), improving moves always pass and a worsening move
    passes with probability exp(-delta/temp)."""
    return delta < threshold


def sa_thresholds(temp: float, u: np.ndarray) -> np.ndarray:
    """-temp * log1p(-u) for uniform draws u in [0, 1): exponential with mean
    temp, so P(delta < threshold) = min(1, exp(-delta/temp))."""
    thresholds = np.log1p(-u)
    thresholds *= -temp
    return thresholds


# Proposals drawn per numpy call; bounds memory whatever iters_per_temp is.
SA_BLOCK = 1 << 16


def run_sa(instance: Instance, cfg: SaConfig) -> RunResult:
    """Simulated annealing from a random tour.

    Proposals are uniform segment reversals (i, j), i < j, but the full-tour
    one, from localsearch.reversal_table. AUTO initial temperature is the
    spread (population standard deviation) of 100 sampled proposal deltas at
    the starting tour. Each temperature level runs iters_per_temp proposals,
    then multiplies the temperature by the cooling factor; the run stops at
    min_temp. run_search records the best-ever cost at the start and once
    per level. Evaluation counts include every proposed neighbor.

    The starting tour comes from random_tour on random.Random(seed). Every
    later draw comes from a numpy Generator seeded by the next 64 bits of
    that stream: each level draws its proposals and their sa_thresholds in
    blocks of at most SA_BLOCK, proposal indices first, then uniforms. A
    new best is re-scored with cycle_length, and so is the current tour at
    the end of each level, to shed the drift of summed deltas.
    """
    return run_search(instance, cfg, _sa_search)


def _sa_search(instance: Instance, cfg: SaConfig, m: DistanceMatrix, rng: random.Random):
    rows = m.rows()
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
    moves = len(table[0])
    if cfg.initial_temp is not None:
        temp = cfg.initial_temp
    else:
        k = gen.integers(moves, size=100)
        samples = reversal_deltas(np.array(order), m.d, *(column[k] for column in table))
        temp = statistics.pstdev(samples.tolist())

    iters = cfg.iters_per_temp if cfg.iters_per_temp is not None else n * n
    while temp > cfg.min_temp:
        for done in range(0, iters, SA_BLOCK):
            size = min(SA_BLOCK, iters - done)
            k = gen.integers(moves, size=size)
            thresholds = sa_thresholds(temp, gen.random(size)).tolist()
            for i, j, jn, threshold in zip(*(column[k].tolist() for column in table), thresholds):
                a, b, c, e = order[i - 1], order[i], order[j], order[jn]
                delta = rows[a][c] + rows[b][e] - rows[a][b] - rows[c][e]
                if sa_accept(delta, threshold):
                    order[i:j + 1] = order[i:j + 1][::-1]
                    current += delta
                    if current < best_cost:
                        # re-score canonically so the recorded best is exact
                        actual = cycle_length(order, rows)
                        if actual < best_cost:
                            best_tour, best_cost = tuple(order), actual
            evaluations += size
        current = cycle_length(order, rows)  # shed accumulated float drift
        temp *= cfg.cooling
        yield best_tour, best_cost, evaluations
