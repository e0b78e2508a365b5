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
order against its own word, drawing each uniform from the replica's PCG64
right before its comparison.  ``run_chain`` sweeps its replicas in groups of
up to four (``_csweep.GROUP``) that share each pass over the masks, and hands
the kernel each replica's generator state, not a buffer of uniforms.  The
mask builders read ``DisorderGraph.words`` as they are.  ``run_chain``
returns only what it computes, a tuple of retained values per replica: the
caller knows each value's graph, replica and sweep from its own arguments.

Randomness is replayable by construction.  A chain seed plus replica index
derives two 64-bit seeds (initial state, dynamics) through repeated
SplitMix64 finalizer application, and each seeds a PCG64 exactly as numpy's
``PCG64(seed)`` does (``SeedSequence``, then ``set_seed``).  Spin k of the
initial state is up when bit 7 of byte k of the first stream's 64-bit
outputs, read low byte first, is set: numpy's ``default_rng(seed).integers(0,
2, size=n, dtype=np.uint8)``.  Every uniform of the dynamics is the next
double of the second stream, one stream per replica whatever group it sweeps
in: the kernel steps that PCG64 itself, bit for bit as numpy's
``Generator.random`` would.  ``pcg64`` does the seeding and the spin rule in
integer arithmetic, so a chain on the compiled kernels never imports
``numpy.random``; numpy is the test oracle, and the kernels' twins draw
through numpy's own ``PCG64``.  Replicas are therefore independent of each
other and of how many run, and rerunning any subset reproduces it bit for
bit.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import pcg64, splitmix
from .graph import GraphSeed, sample_graph
from .errors import CapacityError, DomainError
from .model import _WORD, DisorderGraph, ModelParams
from .stats import EmpiricalMeasure, NormalRef, SampleSummary, ks_distance, levy_distance, summarize

__all__ = [
    "ChainConfig",
    "build_update_tables",
    "check_chain_work",
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
    The master seed and every index must lie in [0, 2^64): reduced modulo
    2^64, two different seeds would give one stream.
    """
    for v in (master, *indices):
        if not 0 <= v <= splitmix.MASK64:
            raise DomainError(f"seeds and stream indices must lie in [0, 2^64), got {v}")
    h = splitmix.finalize(master)
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


def build_update_tables(g: DisorderGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The neighbor masks (w1, w2) and field offsets ``base`` of the heat-bath field.

    Row i of ``w1`` and ``w2`` (shape (n, ceil(n / 64)), 64-bit words, bit j
    of the row is bit j % 64 of word j // 64) marks the neighbors j with
    eps[i,j] + eps[j,i] equal to 1 and 2: the out-edge rows (``g.words``) and
    the in-edge columns combine bitwise.  ``base[i]`` is the field offset when
    every neighbor is down.  The sweep kernels check the layout on every call.
    """
    from ._csweep import library

    return library().masks(g.words)


# Caps on the chain work of one run_chain or quenched_experiment call.  2^40
# site updates take hours at about 20 ns each; 2^24 retained values take about
# 2 GB as Python floats plus their CSV text.
MAX_SITE_UPDATES = 1 << 40
MAX_RETAINED = 1 << 24


def check_chain_work(n: int, cfg: ChainConfig, graphs: int) -> None:
    """Refuse, with CapacityError, chains on ``graphs`` graphs of n sites that
    would make more than ``MAX_SITE_UPDATES`` site updates or retain more than
    ``MAX_RETAINED`` values; callers check before any graph is sampled or swept."""
    updates = graphs * cfg.replicas * cfg.sweeps * n
    if updates > MAX_SITE_UPDATES:
        raise CapacityError(
            f"chains need {updates} site updates, above the cap of {MAX_SITE_UPDATES}"
        )
    retained = graphs * cfg.replicas * cfg.retained(n)
    if retained > MAX_RETAINED:
        raise CapacityError(f"chains retain {retained} values, above the cap of {MAX_RETAINED}")


# Each kernel call runs about this many site updates for the largest group
# (whole sweeps, at least one).  That amortizes the call and still bounds
# it: Python sees Ctrl-C, and run_chain its ``stop``, only between ctypes
# calls.  Block size does not change the stream.
_BLOCK_SITE_UPDATES = 1 << 20


def run_chain(
    g: DisorderGraph, params: ModelParams, cfg: ChainConfig, *, stop: threading.Event | None = None
) -> list[tuple[float, ...]]:
    """Run every replica of the chain on one fixed graph.

    Returns the retained scaled magnetizations of each replica, one tuple per
    replica in replica order: value j was recorded after sweep
    burn_in + (j + 1) thin.  The replica streams are derived from
    cfg.chain_seed, so the result is a pure function of (graph, params, cfg).
    Replicas are swept in groups of up to ``_csweep.GROUP``, which share each
    pass over the masks; a replica's values do not depend on the group it ran
    in.  When ``stop`` is set, the chain raises KeyboardInterrupt before its
    next kernel block: that is how a worker thread, which never sees Ctrl-C
    itself, is ended.
    """
    if g.n != params.n:
        raise DomainError(f"incompatible sizes: graph n={g.n}, params n={params.n}")
    if cfg.retained(g.n) < 1:
        raise DomainError(
            f"no samples retained: sweeps={cfg.sweeps}, "
            f"burn_in={cfg.resolved_burn_in(g.n)}, thin={cfg.thin}"
        )
    check_chain_work(g.n, cfg, 1)
    from ._csweep import GROUP, library

    n = g.n
    w1, w2, base = build_update_tables(g)
    # P(new spin = +1) indexed by S_i + 2n, S_i in [-2n, 2n]
    plus = library().plus(n, params.beta / (n * params.p))
    sweep_block = functools.partial(library().sweep, w1, w2, base, plus)
    burn_in = cfg.resolved_burn_in(n)
    root = math.sqrt(n)
    # the largest group sets the block length and the state buffer that
    # every group reuses
    most = min(GROUP, cfg.replicas)
    block = min(cfg.sweeps, max(1, _BLOCK_SITE_UPDATES // (most * n)))
    all_states = np.empty((most, w1.shape[1]), dtype=_WORD)
    samples = []
    for first in range(0, cfg.replicas, GROUP):
        ids = range(first, min(first + GROUP, cfg.replicas))
        states = all_states[: len(ids)]
        states.fill(0)
        for state, replica_id in zip(states, ids):
            spins = pcg64.bit_spins(derive_seed(cfg.chain_seed, replica_id, 0), n)
            state.view(np.uint8)[: (n + 7) // 8] = np.packbits(spins, bitorder="little")
        # the PCG64 of derive_seed(chain_seed, id, 1), one row a replica
        rngs = np.array(
            [pcg64.seed_row(derive_seed(cfg.chain_seed, i, 1)) for i in ids], dtype=_WORD
        )
        values = [[] for _ in ids]
        sweep = 0
        while sweep < cfg.sweeps:
            if stop is not None and stop.is_set():
                raise KeyboardInterrupt
            step = min(block, cfg.sweeps - sweep)
            for kept, counts in zip(values, sweep_block(states, rngs, step)):
                for t, up in enumerate(counts, sweep + 1):
                    if t > burn_in and (t - burn_in) % cfg.thin == 0:
                        kept.append((2 * up - n) / root)
            sweep += step
        samples.extend(map(tuple, values))
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
    The fields are the ``clt-experiment`` payload as they stand.
    """

    reference: NormalRef
    per_graph: tuple[GraphRun, ...]
    pooled: SampleSummary
    exceed_fraction: float


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
    ``master_seed``, an integer in [0, 2^64), so the whole experiment replays
    from one integer.
    Whole graphs go to a pool of ``threads`` worker threads; results are
    identical to the sequential order at any thread count.  Any exception in
    the calling thread, Ctrl-C included, stops every running chain before
    its next kernel block.
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
    check_chain_work(params.n, cfg, n_graphs)
    reference = NormalRef(mean=0.0, variance=1.0 / (1.0 - params.beta))
    stop = threading.Event()

    def graph_run(index: int) -> GraphRun:
        gseed = derive_seed(master_seed, 1, index)
        g = sample_graph(params, GraphSeed(gseed))
        chain_cfg = replace(cfg, chain_seed=derive_seed(master_seed, 2, index))
        samples = [v for values in run_chain(g, params, chain_cfg, stop=stop) for v in values]
        stats = summarize(samples)
        law = EmpiricalMeasure.from_samples(samples)
        return GraphRun(
            graph_seed=gseed,
            n_samples=stats.count,
            sample_mean=stats.mean,
            sample_variance=stats.variance,
            levy=levy_distance(law, reference),
            ks=ks_distance(law, reference),
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            runs = tuple(pool.map(graph_run, range(n_graphs)))
        except BaseException:
            # leaving the block joins the workers: end their chains first
            stop.set()
            raise
    count = sum(r.n_samples for r in runs)
    mean = sum(r.sample_mean * r.n_samples for r in runs) / count
    # pooled variance via the law of total variance over equal-weight samples
    within = sum((r.n_samples - 1) * r.sample_variance for r in runs)
    between = sum(r.n_samples * (r.sample_mean - mean) ** 2 for r in runs)
    return ExperimentRecord(
        reference=reference,
        per_graph=runs,
        pooled=SampleSummary(count=count, mean=mean, variance=(within + between) / (count - 1)),
        exceed_fraction=sum(1 for r in runs if r.levy > epsilon) / n_graphs,
    )
