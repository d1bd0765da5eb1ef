"""Discrete particle swarm optimization over tours.

Positions are permutations; velocities are swap sequences (ordered lists of
position transpositions). The classic velocity update

    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)

is realized on permutations by taking swap-sequence differences for the
two attraction terms, stochastically truncating each term to scale it, and
concatenating. Applying transpositions can never leave the permutation
space, so position updates need no repair step.

Stream discipline (one shared random.Random per run): initialization
shuffles tours for particles 0..n-1 in order; each step then consumes, per
particle in index order, exactly two uniforms per term (magnitude draw,
fractional-acceptance draw) for inertia, cognitive, and social terms, in
that order. Every recorded cost comes from the canonical sequential
summation, so identical seeds give bit-identical results. run hands the
swarm to instance.run_search, which records the gbest cost at the start and
once per step as the cost history.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigError, DimensionMismatchError, check_types
from .instance import DistanceMatrix, Instance, RunResult, Tour, cycle_length, random_tour, run_search
from .localsearch import three_opt, two_opt

SwapSequence = tuple[tuple[int, int], ...]


class LocalSearch(Enum):
    NONE = "none"
    TWO_OPT_GBEST = "two-opt-gbest"
    TWO_OPT_ALL = "two-opt-all"
    THREE_OPT_GBEST = "three-opt-gbest"


@dataclass(frozen=True)
class SwarmConfig:
    n_particles: int = 30
    max_iter: int = 100
    w: float = field(default=0.8, metadata={"help": "inertia factor"})
    c1: float = 2.0
    c2: float = 2.0
    w_end: float | None = field(default=None,
                                metadata={"help": "final inertia; enables linear decay"})
    local_search: LocalSearch = LocalSearch.TWO_OPT_GBEST
    seed: int = 0
    stagnation_limit: int | None = None

    def __post_init__(self):
        check_types(self)
        if self.n_particles < 1:
            raise ConfigError("n_particles must be >= 1")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not 0.0 <= self.w <= 1.0:
            raise ConfigError("w must be in [0, 1]")
        if self.c1 < 0 or self.c2 < 0:
            raise ConfigError("c1 and c2 must be >= 0")
        if self.w_end is not None and not 0.0 <= self.w_end <= self.w:
            raise ConfigError("w_end must be in [0, w] when set")
        if self.stagnation_limit is not None and self.stagnation_limit < 1:
            raise ConfigError("stagnation_limit must be >= 1 when set")


@dataclass(frozen=True)
class Particle:
    position: Tour
    velocity: SwapSequence
    pbest: Tour
    pbest_cost: float


@dataclass(frozen=True)
class SwarmState:
    particles: tuple[Particle, ...]
    gbest: Tour
    gbest_cost: float
    iteration: int
    evaluations: int


def swap_difference(frm: Tour, to: Tour) -> SwapSequence:
    """A swap sequence s with apply_swaps(frm, s) == to.

    Selection pass: walk positions left to right; whenever the working copy
    disagrees with the target, swap in the target's city from wherever it
    currently sits. At most n-1 swaps; empty when the tours already agree.
    """
    if len(frm) != len(to):
        raise DimensionMismatchError(f"tour sizes differ: {len(frm)} vs {len(to)}")
    working = list(frm)
    where = {city: idx for idx, city in enumerate(working)}
    swaps: list[tuple[int, int]] = []
    for k, target in enumerate(to):
        current = working[k]
        if current != target:
            j = where[target]
            working[k], working[j] = working[j], working[k]
            where[current] = j
            where[target] = k
            swaps.append((k, j))
    return tuple(swaps)


def apply_swaps(t: Tour, s: SwapSequence) -> Tour:
    """Apply transpositions left to right; always yields a valid permutation."""
    n = len(t)
    order = list(t)
    for i, j in s:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"swap ({i}, {j}) out of range for n={n}")
        order[i], order[j] = order[j], order[i]
    return tuple(order)


def stochastic_scale(s: SwapSequence, coefficient: float, rng: random.Random) -> SwapSequence:
    """Scale a swap sequence by keeping a stochastic-length prefix.

    With L = len(s) and one magnitude draw r, the target length is
    min(coefficient*r*L, L); the integer part is kept outright and one more
    swap is kept with probability equal to the fractional part. Consumes
    exactly two uniforms per call regardless of input.
    """
    if not math.isfinite(coefficient) or coefficient < 0:
        raise ValueError(f"coefficient must be finite and >= 0, got {coefficient}")
    r = rng.random()
    u = rng.random()
    target = min(coefficient * r * len(s), float(len(s)))
    keep = int(target)
    if u < target - keep:
        keep += 1
    return s[:keep]


def velocity_update(p: Particle, gbest: Tour, w_now: float, c1: float, c2: float,
                    rng: random.Random) -> SwapSequence:
    """Inertia, cognitive, and social terms concatenated in that fixed order;
    the result is truncated to 2n swaps so velocities cannot grow without
    bound."""
    n = len(p.position)
    inertia = stochastic_scale(p.velocity, w_now, rng)
    cognitive = stochastic_scale(swap_difference(p.position, p.pbest), c1, rng)
    social = stochastic_scale(swap_difference(p.position, gbest), c2, rng)
    return (inertia + cognitive + social)[:2 * n]


def _inertia_now(cfg: SwarmConfig, iteration: int) -> float:
    if cfg.w_end is not None and cfg.max_iter > 1:
        return cfg.w + (cfg.w_end - cfg.w) * iteration / (cfg.max_iter - 1)
    return cfg.w


def _polish(tour: Tour, m: DistanceMatrix, mode: LocalSearch) -> Tour:
    if mode is LocalSearch.THREE_OPT_GBEST:
        return three_opt(tour, m)
    return two_opt(tour, m)


def step(state: SwarmState, cfg: SwarmConfig, m: DistanceMatrix,
         rng: random.Random) -> SwarmState:
    """One swarm iteration.

    Per particle, in index order: velocity update, position update, local
    search when the mode covers every particle, cost evaluation, then
    strict-improvement pbest and gbest updates (later particles see gbest
    updates from earlier ones in the same step).

    The gbest-scoped modes instead refine one tour per iteration: the best
    newly produced position (the iteration's gbest candidate, lowest index
    on ties) is polished after the sweep, re-evaluated, and folded back
    into that particle's position/pbest and the swarm gbest. This bounds
    local-search work to a single polish per iteration while still
    improving a fresh tour each time.
    """
    rows = m.rows()
    w_now = _inertia_now(cfg, state.iteration)
    gbest, gbest_cost = state.gbest, state.gbest_cost
    evaluations = state.evaluations
    particles: list[Particle] = []
    new_costs: list[float] = []

    for p in state.particles:
        velocity = velocity_update(p, gbest, w_now, cfg.c1, cfg.c2, rng)
        position = apply_swaps(p.position, velocity)
        if cfg.local_search is LocalSearch.TWO_OPT_ALL:
            position = two_opt(position, m)
        cost = cycle_length(position, rows)
        evaluations += 1

        pbest, pbest_cost = p.pbest, p.pbest_cost
        if cost < pbest_cost:
            pbest, pbest_cost = position, cost
        if pbest_cost < gbest_cost:
            gbest, gbest_cost = pbest, pbest_cost
        particles.append(Particle(position, velocity, pbest, pbest_cost))
        new_costs.append(cost)

    if cfg.local_search in (LocalSearch.TWO_OPT_GBEST, LocalSearch.THREE_OPT_GBEST):
        if gbest_cost < state.gbest_cost:
            # the fresh gbest holder has never been polished; refine it
            pool = range(len(particles))
        else:
            # no lead change: refine the best tour not already sitting on gbest
            pool = [i for i in range(len(particles)) if particles[i].position != gbest]
        lead = min(pool, key=lambda i: (new_costs[i], i), default=None)
        if lead is not None:
            candidate = particles[lead]
            polished = _polish(candidate.position, m, cfg.local_search)
            if polished != candidate.position:
                cost = cycle_length(polished, rows)
                evaluations += 1
                pbest, pbest_cost = candidate.pbest, candidate.pbest_cost
                if cost < pbest_cost:
                    pbest, pbest_cost = polished, cost
                if pbest_cost < gbest_cost:
                    gbest, gbest_cost = pbest, pbest_cost
                particles[lead] = Particle(polished, candidate.velocity, pbest, pbest_cost)

    return SwarmState(
        particles=tuple(particles),
        gbest=gbest,
        gbest_cost=gbest_cost,
        iteration=state.iteration + 1,
        evaluations=evaluations,
    )


def init_state(instance: Instance, cfg: SwarmConfig, m: DistanceMatrix,
               rng: random.Random) -> SwarmState:
    """Random starting swarm: each particle's initial position is its pbest,
    velocities start empty, gbest is the best initial pbest."""
    rows = m.rows()
    particles = []
    gbest: Tour | None = None
    gbest_cost = float("inf")
    for _ in range(cfg.n_particles):
        tour = random_tour(instance.n, rng)
        cost = cycle_length(tour, rows)
        particles.append(Particle(tour, (), tour, cost))
        if cost < gbest_cost:
            gbest, gbest_cost = tour, cost
    return SwarmState(
        particles=tuple(particles),
        gbest=gbest,
        gbest_cost=gbest_cost,
        iteration=0,
        evaluations=cfg.n_particles,
    )


def _search(instance: Instance, cfg: SwarmConfig, m: DistanceMatrix, rng: random.Random):
    state = init_state(instance, cfg, m, rng)
    yield state.gbest, state.gbest_cost, state.evaluations
    stagnant = 0
    for _ in range(cfg.max_iter):
        before = state.gbest_cost
        state = step(state, cfg, m, rng)
        stagnant = 0 if state.gbest_cost < before else stagnant + 1
        yield state.gbest, state.gbest_cost, state.evaluations
        if cfg.stagnation_limit is not None and stagnant >= cfg.stagnation_limit:
            return


def run(instance: Instance, cfg: SwarmConfig) -> RunResult:
    """Full optimization run; deterministic given (instance, cfg)."""
    return run_search(instance, cfg, _search)
