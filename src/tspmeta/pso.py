"""Discrete particle swarm optimization over tours.

Positions are permutations; velocities are swap sequences (ordered lists of
position transpositions). The classic velocity update

    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)

is realized on permutations by taking swap-sequence differences for the
two attraction terms, stochastically truncating each term to scale it, and
concatenating. Applying transpositions can never leave the permutation
space, so position updates need no repair step.

The swarm is mostly close to converged, so the work follows the
disagreement: swap_difference walks only the positions where the two tours
differ (and returns at once when they agree), and each particle's velocity
and position come from one move that applies the kept swaps to one list,
range-checking only the inertia swaps it did not derive itself.

Stream discipline (one shared random.Random per run): initialization
shuffles tours for particles 0..n-1 in order; each step then consumes, per
particle in index order, exactly two uniforms per term (magnitude draw,
fractional-acceptance draw) for inertia, cognitive, and social terms, in
that order. A particle at rest on the running gbest (empty velocity,
position equal to pbest and gbest) still draws those six uniforms but skips
the move and its evaluation, outside two-opt-all: its terms are empty, and
its pbest_cost is always cycle_length of its pbest, so nothing it would
compute can differ. Every recorded cost comes from the canonical sequential
summation, so identical seeds give bit-identical results. run hands the
swarm to instance.run_search, which records the gbest cost at the start and
once per step as the cost history.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from operator import ne

from .errors import MAX_POPULATION, ConfigError, DimensionMismatchError, check_types
from .instance import DistanceMatrix, Instance, RunResult, Tour, cycle_length, random_tour, run_search
from .localsearch import _three_opt_scans, _two_opt_passes

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
        if not 1 <= self.n_particles <= MAX_POPULATION:
            raise ConfigError(f"n_particles must be in 1..{MAX_POPULATION}")
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

    Only the positions where frm and to disagree are walked, in ascending
    order, which gives the same swaps in the same order: a position that
    agrees is never swapped, because no other position's target city can
    sit there. So `where` needs entries only for the cities at mismatched
    positions, and as a walked position is never read again, a swap writes
    only the city it displaces.
    """
    n = len(frm)
    if n != len(to):
        raise DimensionMismatchError(f"tour sizes differ: {n} vs {len(to)}")
    if frm == to:
        return ()
    mismatched = list(compress(range(n), map(ne, frm, to)))
    working = list(frm)
    where = [0] * n
    for k in mismatched:
        where[working[k]] = k
    swaps: list[tuple[int, int]] = []
    for k in mismatched:
        current, target = working[k], to[k]
        if current != target:
            j = where[target]
            working[j] = current
            where[current] = j
            swaps.append((k, j))
    return tuple(swaps)


def _check_swaps(s: SwapSequence, n: int) -> None:
    for i, j in s:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"swap ({i}, {j}) out of range for n={n}")


def _swapped(t: Tour, s: SwapSequence) -> Tour:
    order = list(t)
    for i, j in s:
        order[i], order[j] = order[j], order[i]
    return tuple(order)


def apply_swaps(t: Tour, s: SwapSequence) -> Tour:
    """Apply transpositions left to right; always yields a valid permutation."""
    _check_swaps(s, len(t))
    return _swapped(t, s)


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


def _move(p: Particle, gbest: Tour, w_now: float, c1: float, c2: float,
          rng: random.Random) -> tuple[SwapSequence, Tour]:
    """A particle's new velocity and the position it moves to.

    The velocity is the inertia, cognitive and social terms concatenated in
    that fixed order and truncated to 2n swaps, so velocities cannot grow
    without bound; the position applies it to the particle's position. Only
    the inertia prefix is range-checked (ValueError): the other swaps come
    from this call's own swap_difference, in range by construction.
    """
    n = len(p.position)
    inertia = stochastic_scale(p.velocity, w_now, rng)
    cognitive = stochastic_scale(swap_difference(p.position, p.pbest), c1, rng)
    social = stochastic_scale(swap_difference(p.position, gbest), c2, rng)
    velocity = (inertia + cognitive + social)[:2 * n]
    _check_swaps(velocity[:len(inertia)], n)
    return velocity, _swapped(p.position, velocity)


def velocity_update(p: Particle, gbest: Tour, w_now: float, c1: float, c2: float,
                    rng: random.Random) -> SwapSequence:
    """The velocity of the particle's move: inertia, cognitive, and social
    terms concatenated in that fixed order; the result is truncated to 2n
    swaps so velocities cannot grow without bound. Raises ValueError when a
    kept inertia swap is out of range."""
    return _move(p, gbest, w_now, c1, c2, rng)[0]


def _inertia_now(cfg: SwarmConfig, iteration: int) -> float:
    if cfg.w_end is not None and cfg.max_iter > 1:
        # the interpolation can round to just below a w_end of 0
        return max(0.0, cfg.w + (cfg.w_end - cfg.w) * iteration / (cfg.max_iter - 1))
    return cfg.w


# the local search each gbest-scoped mode polishes a step's lead with
_LEAD_POLISH = {LocalSearch.TWO_OPT_GBEST: _two_opt_passes,
                LocalSearch.THREE_OPT_GBEST: _three_opt_scans}


def step(state: SwarmState, cfg: SwarmConfig, m: DistanceMatrix,
         rng: random.Random) -> SwarmState:
    """One swarm iteration.

    Per particle, in index order: velocity update, position update, 2-opt
    when the mode covers every particle, cost evaluation, then
    strict-improvement pbest and gbest updates (later particles see gbest
    updates from earlier ones in the same step).

    A particle at rest, with an empty velocity and its position equal to its
    pbest and to the running gbest, is kept as it is at the cost of its six
    draws, unless the mode is two-opt-all (whose 2-opt could still move it):
    its three terms are empty, so the move would rebuild the same particle,
    and its cost is its pbest_cost, which init_state and step always store
    as cycle_length of that very tuple.

    The gbest-scoped modes then polish one tour, the lead: the cheapest new
    position that is not the step's starting gbest, lowest index on ties. A
    polish that changes the lead is re-evaluated and folded into that
    particle's position and pbest and the swarm gbest by the same updates.
    This bounds local-search work to one polish per step.
    """
    rows = m.rows
    w_now = _inertia_now(cfg, state.iteration)
    gbest, gbest_cost = state.gbest, state.gbest_cost

    def visit(p: Particle, position: Tour, velocity: SwapSequence, cost: float) -> Particle:
        nonlocal gbest, gbest_cost
        pbest, pbest_cost = (position, cost) if cost < p.pbest_cost else (p.pbest, p.pbest_cost)
        if pbest_cost < gbest_cost:
            gbest, gbest_cost = pbest, pbest_cost
        return Particle(position, velocity, pbest, pbest_cost)

    may_rest = cfg.local_search is not LocalSearch.TWO_OPT_ALL
    particles, costs = [], []
    for p in state.particles:
        if may_rest and not p.velocity and p.position == p.pbest == gbest:
            # at rest: three empty terms, so only their six uniforms are spent,
            # 12 Mersenne Twister words, all read by one call
            rng.getrandbits(384)
            costs.append(p.pbest_cost)
            particles.append(p)
            continue
        velocity, position = _move(p, gbest, w_now, cfg.c1, cfg.c2, rng)
        if cfg.local_search is LocalSearch.TWO_OPT_ALL:
            position = _two_opt_passes(position, m)
        costs.append(cycle_length(position, rows))
        particles.append(visit(p, position, velocity, costs[-1]))
    evaluations = state.evaluations + len(particles)

    polish = _LEAD_POLISH.get(cfg.local_search)
    if polish is not None:
        lead = min((i for i, p in enumerate(particles) if p.position != state.gbest),
                   key=costs.__getitem__, default=None)
        if lead is not None:
            p = particles[lead]
            polished = polish(p.position, m)
            if polished != p.position:
                evaluations += 1
                particles[lead] = visit(p, polished, p.velocity, cycle_length(polished, rows))

    return SwarmState(tuple(particles), gbest, gbest_cost, state.iteration + 1, evaluations)


def init_state(instance: Instance, cfg: SwarmConfig, m: DistanceMatrix,
               rng: random.Random) -> SwarmState:
    """Random starting swarm: each particle's initial position is its pbest,
    velocities start empty, gbest is the best initial pbest (the first on
    ties)."""
    rows = m.rows
    tours = (random_tour(instance.n, rng) for _ in range(cfg.n_particles))
    particles = tuple(Particle(tour, (), tour, cycle_length(tour, rows)) for tour in tours)
    best = min(particles, key=lambda p: p.pbest_cost)
    return SwarmState(particles, best.pbest, best.pbest_cost, 0, cfg.n_particles)


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
