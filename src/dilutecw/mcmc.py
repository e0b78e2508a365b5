"""Glauber heat-bath dynamics for the magnetization under fixed disorder.

One sweep visits sites 0 .. n-1 in order.  At site i the conditional Gibbs
law given the rest depends only on the integer field

    S_i = sum_{j != i} (eps[i,j] + eps[j,i]) * s_j

(the diagonal term cancels because s_i^2 = 1), and the heat-bath update sets
s_i = +1 with probability 1 / (1 + exp(-beta * S_i / (n p))) regardless of
the current value.  S_i is an AND-and-popcount against two per-site masks
(weight-1 and weight-2 symmetric neighbors), and since S_i only takes the
integer values -2n .. 2n, the acceptance probabilities come from one
precomputed table per (graph shape, beta).  The masks, the table and the
sweep are kernels of ``_csweep.library()``, compiled or their twins, bit for
bit the same; ``_csweep``'s docstring says how the sweep runs.

``GraphChain(g, params)`` is the chain of one fixed graph: it builds the
masks and the table once and binds the sweep to them.  ``start`` seeds the
rows of up to ``_csweep.GROUP`` replicas, and ``run`` sweeps them in kernel
blocks, checking a ``stop`` event before each, and yields each row's up-spin
counts.  ``run_chain`` is a loop over it that keeps every ``thin``-th value
past burn-in and returns only that, a tuple per replica: the caller knows
each value's graph, replica and sweep from its own arguments.
``check_chain_work`` refuses a chain's settings, before its graph exists.

Randomness is replayable by construction.  A chain seed plus replica index
derives two 64-bit seeds (initial state, dynamics) through repeated
SplitMix64 finalizer application, and each seeds a PCG64 exactly as numpy's
``PCG64(seed)`` does (``SeedSequence``, then ``set_seed``).  Spin k of the
initial state is up when bit 7 of byte k of the first stream's 64-bit
outputs, read low byte first, is set: numpy's ``default_rng(seed).integers(0,
2, size=n, dtype=np.uint8)``.  Every uniform of the dynamics is the next
double of the second stream, as numpy's ``Generator.random`` draws it, one
stream per replica whatever group it sweeps in.  ``pcg64`` does the seeding
in integer arithmetic, so a chain on the compiled kernels never imports
numpy.  Replicas are therefore independent of each other and of how many
run, and rerunning any subset reproduces it bit for bit.
"""

from __future__ import annotations

import functools
import math
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import pcg64, splitmix
from .graph import GraphSeed, sample_graph
from .errors import CapacityError, DomainError
from .model import DisorderGraph, ModelParams
from .stats import EmpiricalMeasure, NormalRef, SampleSummary, ks_distance, levy_distance, summarize

__all__ = [
    "ChainConfig",
    "GraphChain",
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


def build_update_tables(g: DisorderGraph) -> tuple:
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
# 2 GB as Python floats plus their CSV text.  Each graph costs about 0.4 ms and
# 2.7 KB even at n = 1 (60,000 graphs of 16 sweeps: 23.8 s, 177 MB and 13 MB
# of JSON), so 2^19 graphs take about 3.5 min and 1.4 GB.  A pool starts one
# OS thread per graph up to its size, so ``threads`` has a cap too, the same
# on every host.
MAX_SITE_UPDATES = 1 << 40
MAX_RETAINED = 1 << 24
MAX_GRAPHS = 1 << 19
MAX_THREADS = 256


def check_chain_work(n: int, cfg: ChainConfig, graphs: int) -> None:
    """The one check of chains on ``graphs`` graphs of n sites, made before any
    graph is sampled or read: CapacityError past ``MAX_GRAPHS`` graphs,
    ``MAX_SITE_UPDATES`` site updates or ``MAX_RETAINED`` values, then
    DomainError if a chain keeps none."""
    if graphs > MAX_GRAPHS:
        raise CapacityError(f"{graphs} graphs, above the cap of {MAX_GRAPHS}")
    updates = graphs * cfg.replicas * cfg.sweeps * n
    if updates > MAX_SITE_UPDATES:
        raise CapacityError(
            f"chains need {updates} site updates, above the cap of {MAX_SITE_UPDATES}"
        )
    kept = cfg.retained(n)
    retained = graphs * cfg.replicas * kept
    if retained > MAX_RETAINED:
        raise CapacityError(f"chains retain {retained} values, above the cap of {MAX_RETAINED}")
    if kept < 1:
        raise DomainError(
            f"no samples retained: sweeps={cfg.sweeps}, "
            f"burn_in={cfg.resolved_burn_in(n)}, thin={cfg.thin}"
        )


# Each kernel call runs about this many site updates (whole sweeps, at least
# one): that amortizes the call, and Python sees Ctrl-C and ``stop`` only
# between calls.  Block size does not change the stream.
_BLOCK_SITE_UPDATES = 1 << 20


class GraphChain:
    """The chain of one fixed graph: its masks ``w1``, ``w2``, ``base``, its
    table ``plus`` of P(new spin = +1) by S_i + 2n, and the sweep bound to
    them.  ``start`` makes the rows of replicas, and ``run`` sweeps them."""

    def __init__(self, g: DisorderGraph, params: ModelParams):
        if g.n != params.n:
            raise DomainError(f"incompatible sizes: graph n={g.n}, params n={params.n}")
        from ._csweep import library

        self.n = g.n
        self.w1, self.w2, self.base = build_update_tables(g)
        self.plus = library().plus(g.n, params.beta / (g.n * params.p))
        self.sweep = functools.partial(library().sweep, self.w1, self.w2, self.base, self.plus)

    def start(self, chain_seed: int, ids: range) -> tuple[memoryview, memoryview]:
        """The (states, rngs) rows of replicas ``ids``, at most ``_csweep.GROUP``:
        replica i's initial spins, drawn by the PCG64 of derive_seed(chain_seed,
        i, 0), and the PCG64 of derive_seed(chain_seed, i, 1), which drives it."""
        size = 8 * ((self.n + 63) // 64)
        spins = b"".join(
            pcg64.packed_spins(derive_seed(chain_seed, i, 0), self.n).ljust(size, b"\0") for i in ids
        )
        rngs = array("Q", [v for i in ids for v in pcg64.seed_row(derive_seed(chain_seed, i, 1))])
        return (memoryview(bytearray(spins)).cast("Q", (len(ids), size // 8)),
                memoryview(rngs).cast("B").cast("Q", (len(ids), 4)))

    def run(self, states, rngs, sweeps: int, stop: threading.Event | None = None):
        """Sweep the rows ``sweeps`` times in place, in kernel blocks of about
        ``_BLOCK_SITE_UPDATES`` site updates, raising KeyboardInterrupt before a
        block once ``stop`` is set.  Yields, per block, the sweeps done before
        it and each row's up-spin count after each of its sweeps."""
        block = max(1, _BLOCK_SITE_UPDATES // (len(states) * self.n))
        for done in range(0, sweeps, block):
            if stop is not None and stop.is_set():
                raise KeyboardInterrupt
            yield done, self.sweep(states, rngs, min(block, sweeps - done))


def run_chain(
    g: DisorderGraph, params: ModelParams, cfg: ChainConfig, *, stop: threading.Event | None = None
) -> list[tuple[float, ...]]:
    """Run every replica of the chain on one fixed graph.

    Returns the retained scaled magnetizations of each replica, one tuple per
    replica in replica order: value j was recorded after sweep
    burn_in + (j + 1) thin.  The result is a pure function of (graph, params,
    cfg), whatever group of ``_csweep.GROUP`` replicas each replica ran in.
    When ``stop`` is set, the chain raises KeyboardInterrupt before its next
    kernel block: that is how a worker thread, which never sees Ctrl-C
    itself, is ended.  ``check_chain_work`` refuses the configuration, and
    ``GraphChain`` a graph of another size.
    """
    check_chain_work(g.n, cfg, 1)
    from ._csweep import GROUP

    chain = GraphChain(g, params)
    n, burn_in, thin, root = g.n, cfg.resolved_burn_in(g.n), cfg.thin, math.sqrt(g.n)
    samples = []
    for first in range(0, cfg.replicas, GROUP):
        states, rngs = chain.start(cfg.chain_seed, range(first, min(first + GROUP, cfg.replicas)))
        values = [[] for _ in range(len(states))]
        for done, counts in chain.run(states, rngs, cfg.sweeps, stop):
            # sweep done + j + 1 is kept when it is burn_in + k thin, k >= 1
            skip = burn_in - done - 1
            for kept, row in zip(values, counts):
                kept.extend((2 * up - n) / root for up in row[max(skip + thin, skip % thin)::thin])
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
    Whole graphs go to a pool of ``threads`` worker threads, at most
    ``MAX_THREADS``; results are identical to the sequential order at any
    thread count.  Any exception in the calling thread, Ctrl-C included,
    stops every running chain before its next kernel block.
    """
    if not params.beta < 1.0:
        raise DomainError(f"Gaussian reference requires beta < 1, got {params.beta}")
    if n_graphs < 1:
        raise DomainError(f"n_graphs must be positive, got {n_graphs}")
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if threads < 1:
        raise DomainError(f"threads must be positive, got {threads}")
    if threads > MAX_THREADS:
        raise CapacityError(f"{threads} threads, above the cap of {MAX_THREADS}")
    derive_seed(master_seed)  # refuses a seed outside [0, 2^64) here, not in each worker
    check_chain_work(params.n, cfg, n_graphs)
    pooled = n_graphs * cfg.replicas * cfg.retained(params.n)
    if pooled < 2:
        raise DomainError(f"the pooled variance needs at least 2 retained samples, got {pooled}")
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
