"""Glauber heat-bath dynamics for the magnetization under fixed disorder.

One sweep visits sites 0 .. n-1 in order.  At site i the conditional Gibbs
law given the rest depends only on the integer field

    S_i = sum_{j != i} (eps[i,j] + eps[j,i]) * s_j

(the diagonal term cancels because s_i^2 = 1), and the heat-bath update sets
s_i = +1 with probability 1 / (1 + exp(-beta * S_i / (n p))) regardless of
the current value.  S_i is an AND-and-popcount against two per-site masks
(weight-1 and weight-2 symmetric neighbors), and since S_i only takes the
integer values -2n .. 2n, the acceptance probabilities come from one
precomputed table per (graph shape, beta).  That keeps the inner loop at two
masked popcounts, one table lookup, and one comparison per site.  The masks,
the table and the sweep are kernels of ``_csweep.library()``: compiled where a
C compiler is at hand (``build_masks``, ``plus_table``, ``sweep_block_<path>``),
their numpy and Python twins otherwise, bit for bit the same.  The library
probes the CPU once at load and sweeps on the fastest path of
``_csweep.PATHS`` that the CPU runs.  The compiled sweep counts each block of
64 sites' field over the other state words first, then updates the block in
order against its own word.  ``run_chain`` sweeps its
replicas in groups of up to four (``_csweep.GROUP``) that share each pass over
the masks, and draws their uniforms into one bounded buffer that every group
reuses.  The mask builders read ``DisorderGraph.words`` as they are.

Randomness is replayable by construction.  A chain seed plus replica index
derives two 64-bit streams (initial state, dynamics) through repeated
SplitMix64 finalizer application; every uniform then comes from a
numpy Generator seeded with the derived value, one per replica whatever
group it sweeps in.  Replicas are therefore independent of each other and of
how many run, and rerunning any subset reproduces it bit for bit.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import splitmix
from .graph import GraphSeed, sample_graph
from .errors import DomainError
from .model import _WORD, DisorderGraph, ModelParams
from .stats import EmpiricalMeasure, NormalRef, ks_distance, levy_distance, summarize

__all__ = [
    "ChainConfig",
    "MagnetizationSample",
    "SpinUpdateTables",
    "build_update_tables",
    "default_burn_in",
    "derive_seed",
    "run_chain",
    "GraphRun",
    "ExperimentRecord",
    "quenched_experiment",
]


def derive_seed(master: int, *indices: int) -> int:
    """Derive an independent 64-bit stream seed from a master seed and indices.

    Chained SplitMix64: each index advances the state by (index + 1) golden
    steps and refinalizes, so (seed, 1, 2) and (seed, 2, 1) land far apart.
    """
    h = splitmix.finalize(master & splitmix.MASK64)
    for v in indices:
        h = splitmix.finalize((h + (int(v) + 1) * splitmix.GAMMA) & splitmix.MASK64)
    return h


def default_burn_in(n: int) -> int:
    """Default burn-in, 10 sqrt(n) sweeps, tuned for the fast-mixing regime.

    Above the transition the chain needs far longer than any fixed rule to
    hop between the two magnetized branches; callers studying that regime
    should set burn-in explicitly.
    """
    return math.ceil(10.0 * math.sqrt(n))


@dataclass(frozen=True)
class ChainConfig:
    """Sweep budget and seeding for one or more replicas of a chain.

    ``sweeps`` counts all sweeps including burn-in; a value is recorded every
    ``thin`` sweeps once past ``burn_in``, so floor((sweeps - burn_in)/thin)
    values are retained per replica.  ``burn_in=None`` applies the default
    rule at run time.
    """

    sweeps: int
    burn_in: int | None = None
    thin: int = 1
    replicas: int = 1
    chain_seed: int = 0

    def __post_init__(self):
        if self.sweeps < 1:
            raise DomainError(f"sweeps must be positive, got {self.sweeps}")
        if self.burn_in is not None and self.burn_in < 0:
            raise DomainError(f"burn_in must be nonnegative, got {self.burn_in}")
        if self.thin < 1:
            raise DomainError(f"thin must be positive, got {self.thin}")
        if self.replicas < 1:
            raise DomainError(f"replicas must be positive, got {self.replicas}")
        if not 0 <= self.chain_seed < (1 << 64):
            raise DomainError(f"chain_seed must fit in 64 bits, got {self.chain_seed}")

    def resolved_burn_in(self, n: int) -> int:
        return default_burn_in(n) if self.burn_in is None else self.burn_in

    def retained(self, n: int) -> int:
        kept = (self.sweeps - self.resolved_burn_in(n)) // self.thin
        return max(kept, 0)


@dataclass(frozen=True)
class MagnetizationSample:
    """Retained scaled-magnetization values of one replica.

    ``values[j]`` was recorded at sweep ``first_sweep + j * thin`` (1-based
    sweep count).
    """

    graph_seed: int | None
    replica_id: int
    first_sweep: int
    thin: int
    values: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SpinUpdateTables:
    """Per-site neighbor masks for the heat-bath field.

    Row i of ``w1`` and ``w2`` (shape (n, ceil(n / 64)), 64-bit words, bit j
    of the row is bit j % 64 of word j // 64) marks the neighbors j with
    eps[i,j] + eps[j,i] equal to 1 and 2; ``base[i]`` is the field offset
    when every neighbor is down.  Scale-free: tables depend on the graph only.
    Built by ``build_update_tables``; the sweep kernels check the layout of
    these buffers on every call.
    """

    n: int
    w1: np.ndarray
    w2: np.ndarray
    base: np.ndarray


def build_update_tables(g: DisorderGraph) -> SpinUpdateTables:
    """Build the symmetric neighbor masks from the rows (``g.words``) and columns.

    The out-edge rows and the in-edge columns combine bitwise: weight 2
    where both are set, weight 1 where exactly one is.
    """
    from ._csweep import library

    return SpinUpdateTables(g.n, *library().masks(g.words))


def _plus_probabilities(params: ModelParams, n: int) -> np.ndarray:
    """P(new spin = +1) indexed by S_i + 2n, S_i in [-2n, 2n]."""
    from ._csweep import library

    return library().plus(n, params.beta / (params.n * params.p))


# Each replica's uniforms are drawn from its generator in blocks of about
# this many for the largest group (whole sweeps, at least one), into one
# buffer every group reuses.  That amortizes the numpy and kernel calls and
# bounds the buffer at this many uniforms or GROUP * n, whichever is more,
# for any number of replicas.  Block size does not change the stream.
_BLOCK_UNIFORMS = 1 << 20


def run_chain(
    g: DisorderGraph,
    params: ModelParams,
    cfg: ChainConfig,
    *,
    graph_seed: int | None = None,
) -> list[MagnetizationSample]:
    """Run every replica of the chain on one fixed graph.

    Returns one MagnetizationSample per replica, in replica order; the
    replica streams are derived from cfg.chain_seed, so the result is a pure
    function of (graph, params, cfg).  Replicas are swept in groups of up to
    ``_csweep.GROUP``, which share each pass over the masks; a replica's
    values do not depend on the group it ran in.
    """
    if g.n != params.n:
        raise DomainError(f"incompatible sizes: graph n={g.n}, params n={params.n}")
    if cfg.retained(g.n) < 1:
        raise DomainError(
            f"no samples retained: sweeps={cfg.sweeps}, "
            f"burn_in={cfg.resolved_burn_in(g.n)}, thin={cfg.thin}"
        )
    from ._csweep import GROUP, library

    n = g.n
    tables = build_update_tables(g)
    plus = _plus_probabilities(params, n)
    sweep_block = functools.partial(library().sweep, tables.w1, tables.w2, tables.base, plus)
    burn_in = cfg.resolved_burn_in(n)
    root = math.sqrt(n)
    # the largest group sets the size of the buffers every group reuses
    most = min(GROUP, cfg.replicas)
    block = min(cfg.sweeps, max(1, _BLOCK_UNIFORMS // (most * n)))
    buffer = np.empty(most * block * n)
    all_states = np.empty((most, tables.w1.shape[1]), dtype=_WORD)
    samples = []
    for first in range(0, cfg.replicas, GROUP):
        ids = range(first, min(first + GROUP, cfg.replicas))
        states = all_states[: len(ids)]
        states.fill(0)
        dyn_rngs = []
        for state, replica_id in zip(states, ids):
            init_rng = np.random.default_rng(derive_seed(cfg.chain_seed, replica_id, 0))
            spins = init_rng.integers(0, 2, size=n, dtype=np.uint8)
            state.view(np.uint8)[: (n + 7) // 8] = np.packbits(spins, bitorder="little")
            dyn_rngs.append(np.random.default_rng(derive_seed(cfg.chain_seed, replica_id, 1)))
        values = [[] for _ in ids]
        sweep = 0
        while sweep < cfg.sweeps:
            step = min(block, cfg.sweeps - sweep)
            uniforms = buffer[: len(ids) * step * n].reshape(len(ids), step * n)
            for dyn_rng, row in zip(dyn_rngs, uniforms):
                dyn_rng.random(out=row)
            for kept, counts in zip(values, sweep_block(states, uniforms)):
                for t, up in enumerate(counts, sweep + 1):
                    if t > burn_in and (t - burn_in) % cfg.thin == 0:
                        kept.append((2 * up - n) / root)
            sweep += step
        samples.extend(
            MagnetizationSample(
                graph_seed=graph_seed,
                replica_id=replica_id,
                first_sweep=burn_in + cfg.thin,
                thin=cfg.thin,
                values=tuple(kept),
            )
            for replica_id, kept in zip(ids, values)
        )
    return samples


@dataclass(frozen=True)
class GraphRun:
    """Distances and moments of the pooled samples from one disorder graph."""

    graph_seed: int
    n_samples: int
    sample_mean: float
    sample_variance: float
    levy: float
    ks: float


@dataclass(frozen=True)
class ExperimentRecord:
    """Quenched verification run: per-graph distances plus pooled statistics.

    ``exceed_fraction`` is the fraction of graphs whose Levy distance to the
    Gaussian reference exceeds the epsilon the experiment was called with.
    """

    reference: NormalRef
    epsilon: float
    runs: tuple[GraphRun, ...]
    pooled_count: int
    pooled_mean: float
    pooled_variance: float
    exceed_fraction: float


def _one_graph_run(
    params: ModelParams, cfg: ChainConfig, master_seed: int, index: int, epsilon_ref: NormalRef
) -> GraphRun:
    gseed = derive_seed(master_seed, 1, index)
    g = sample_graph(params, GraphSeed(gseed))
    chain_cfg = ChainConfig(
        sweeps=cfg.sweeps,
        burn_in=cfg.burn_in,
        thin=cfg.thin,
        replicas=cfg.replicas,
        chain_seed=derive_seed(master_seed, 2, index),
    )
    samples = run_chain(g, params, chain_cfg, graph_seed=gseed)
    pooled = [v for sample in samples for v in sample.values]
    stats = summarize(pooled)
    law = EmpiricalMeasure.from_samples(pooled)
    return GraphRun(
        graph_seed=gseed,
        n_samples=stats.count,
        sample_mean=stats.mean,
        sample_variance=stats.variance,
        levy=levy_distance(law, epsilon_ref),
        ks=ks_distance(law, epsilon_ref),
    )


def quenched_experiment(
    params: ModelParams,
    cfg: ChainConfig,
    n_graphs: int,
    *,
    master_seed: int,
    epsilon: float = 0.1,
    threads: int = 1,
) -> ExperimentRecord:
    """Sample fresh graphs, run chains on each, compare laws to the Gaussian.

    The reference is the centered Gaussian with variance 1/(1 - beta), which
    requires beta < 1.  Graph seeds and chain seeds both derive from
    ``master_seed``, so the whole experiment replays from one integer.
    ``threads`` > 1 distributes whole graphs over a thread pool; results are
    identical to the sequential order either way.
    """
    if not params.beta < 1.0:
        raise DomainError(f"Gaussian reference requires beta < 1, got {params.beta}")
    if n_graphs < 1:
        raise DomainError(f"n_graphs must be positive, got {n_graphs}")
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if threads < 1:
        raise DomainError(f"threads must be positive, got {threads}")
    pooled = n_graphs * cfg.replicas * cfg.retained(params.n)
    if pooled < 2:
        raise DomainError(f"the pooled variance needs at least 2 retained samples, got {pooled}")
    reference = NormalRef(mean=0.0, variance=1.0 / (1.0 - params.beta))
    if threads == 1:
        runs = [
            _one_graph_run(params, cfg, master_seed, i, reference)
            for i in range(n_graphs)
        ]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(
                pool.map(
                    lambda i: _one_graph_run(params, cfg, master_seed, i, reference),
                    range(n_graphs),
                )
            )
    pooled_counts = sum(r.n_samples for r in runs)
    pooled_mean = sum(r.sample_mean * r.n_samples for r in runs) / pooled_counts
    # pooled variance via the law of total variance over equal-weight samples
    within = sum((r.n_samples - 1) * r.sample_variance for r in runs)
    between = sum(r.n_samples * (r.sample_mean - pooled_mean) ** 2 for r in runs)
    pooled_variance = (within + between) / (pooled_counts - 1)
    exceed = sum(1 for r in runs if r.levy > epsilon) / n_graphs
    return ExperimentRecord(
        reference=reference,
        epsilon=epsilon,
        runs=tuple(runs),
        pooled_count=pooled_counts,
        pooled_mean=pooled_mean,
        pooled_variance=pooled_variance,
        exceed_fraction=exceed,
    )
