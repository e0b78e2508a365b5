"""Command-line front end.

Eight subcommands map onto the library layers: graph-sample, exact-partition,
exact-moments, exact-oracle, asym-predict, series-check, mcmc-run,
clt-experiment.  Scalar results are emitted as JSON records, all written by
``_emit_json``: the command, the package version, and a "config" that echoes
every parsed argument except --out and --threads (neither changes a
payload), then the command's own fields.  ``clt-experiment`` and
``asym-predict`` emit their library records as they stand (``asdict``).
Sample sequences are emitted as CSV.  Outputs are deterministic byte for
byte given the same arguments: anything volatile (wall-clock runtime,
timestamps) goes to stderr and, when --out is used, to a separate
<out>.meta.json sidecar.

Exit codes: 0 success, 2 argument validation, 3 refused by a capacity cap,
4 runtime failure (unparseable input file, numerical impossibility, I/O),
130 interrupted (Ctrl-C), each failure with one ``error:`` line on stderr.
Validation is argparse's types plus the library's own checks, which raise
DomainError; the handlers here restate none of them.  The one check of the
CLI's own is on its output: ``series-check`` refuses a coefficient whose
numerator or denominator has more decimal digits than Python converts to
text (``sys.get_int_max_str_digits``).

A process builds each parser once (``build_parser`` is cached) and every
``main`` call reads one of them: parsing does not change it, and the
handlers it dispatches to look up the library's functions by module name at
call time.  ``main`` builds the parser of its command alone, since adding
all eight commands' flags costs milliseconds a process; ``--help``,
``--version`` and a bad or missing command get the full parser.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .asymptotics import (
    predict_log_partition,
    remainder_check,
    taylor_coefficients_exact,
)
from .errors import CapacityError, DomainError, GraphFormatError
from .exact import (
    check_enumeration,
    disorder_oracle,
    enumerate_partition,
    expected_partition_log,
    second_moment_log,
    variance_ratio_from_logs,
)
from .graph import GraphSeed, read_graph, sample_graph, write_graph
from .mcmc import ChainConfig, check_chain_work, derive_seed, quenched_experiment, run_chain
from .model import ModelParams
from .testfunctions import parse_test_function

_REMAINDER_GRID = (0.25, 0.125, 0.0625)


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _sanitize(obj):
    """Make a payload strict-JSON safe: non-finite floats become strings, and
    so do Fractions (``series-check --p 1/2`` echoes "1/2")."""
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    if isinstance(obj, Fraction) or isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def _emit(text: str, out: str | None, started: float, meta: dict | None = None) -> None:
    """Write the payload; with --out, also the sidecar of volatile facts plus ``meta``."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    _write_sidecar(out, started, meta)


def _write_sidecar(out: str, started: float, meta: dict | None = None) -> None:
    """The ``.meta.json`` sidecar of an --out file: volatile facts plus ``meta``."""
    sidecar = {
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "written_at": datetime.now(timezone.utc).isoformat(),
        **(meta or {}),
    }
    with open(out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Arguments that change no payload, so the config echo leaves them out.
_NOT_ECHOED = frozenset({"command", "func", "out", "threads"})


def _emit_json(args, fields: dict, started: float, meta: dict | None = None) -> None:
    """Write a command's JSON record: the command, the package version, every
    argument but ``_NOT_ECHOED`` as "config", then the command's own ``fields``."""
    payload = {
        "command": args.command,
        "artifact_version": __version__,
        "config": {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED},
        **fields,
    }
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    _emit(text, args.out, started, meta)


def _load_or_sample_graph(args, params: ModelParams):
    """Graph from --graph when given, else sampled from --seed; returns
    (graph, graph_seed_or_None)."""
    if args.graph is not None:
        _log(f"reading graph from {args.graph}")
        return read_graph(args.graph), None
    seed = derive_seed(args.seed, 1)
    _log(f"sampling graph n={params.n} (seed {args.seed} -> graph stream {seed})")
    return sample_graph(params, GraphSeed(seed)), seed


def _cmd_graph_sample(args, started: float) -> None:
    params = ModelParams(n=args.n, p=args.p, beta=args.beta)
    g = sample_graph(params, GraphSeed(args.seed))
    _log(f"sampled graph n={g.n} edges={g.edge_count()}")
    # Straight to the destination, a block of rows at a time: the text of a
    # large graph is never held whole.
    if args.out is None:
        write_graph(g, sys.stdout)
        return
    write_graph(g, args.out)
    _write_sidecar(args.out, started, _kernel_meta(False, True))


def _cmd_exact_partition(args, started: float) -> None:
    params = ModelParams(n=args.n, p=args.p, beta=args.beta)
    check_enumeration(params.n)
    g, graph_seed = _load_or_sample_graph(args, params)
    _log(f"enumerating 2^{params.n} configurations")
    summary = enumerate_partition(g, params)
    fields = {
        "graph_seed": graph_seed,
        "log_z": summary.log_z,
        "free_energy_per_site": summary.free_energy_per_site,
        "law": {
            "locations": list(summary.law.locations),
            "weights": list(summary.law.weights),
        },
    }
    _emit_json(args, fields, started, {"configs": 1 << params.n})


def _cmd_exact_moments(args, started: float) -> None:
    params = ModelParams(n=args.n, p=args.p, beta=args.beta)
    g = parse_test_function(args.g)
    # second moment first: its capacity cap then refuses a huge n before the
    # first moment's bigint sum over n + 1 classes starts
    _log(f"second moment (n={params.n})")
    second = second_moment_log(params, g)
    _log("first moment")
    first = expected_partition_log(params, g)
    if first == -math.inf:
        ratio, clamped = None, False
    else:
        ratio, clamped = variance_ratio_from_logs(first, second)
    fields = {
        "log_expected_partition": first,
        "log_second_moment": second,
        "variance_ratio": ratio,
        "variance_ratio_clamped": clamped,
    }
    _emit_json(args, fields, started)


def _cmd_exact_oracle(args, started: float) -> None:
    params = ModelParams(n=args.n, p=args.p, beta=args.beta)
    g = parse_test_function(args.g)
    _log(f"brute-force disorder average over 2^{params.n * params.n} graphs")
    value = disorder_oracle(params, g, args.moment)
    _emit_json(args, {"log_value": value}, started)


def _cmd_asym_predict(args, started: float) -> None:
    params = ModelParams(n=args.n, p=args.p, beta=args.beta)
    g = parse_test_function(args.g)
    prediction = predict_log_partition(params, g, args.variant)
    _emit_json(args, asdict(prediction), started)


def _seed(text: str) -> int:
    """argparse type of every --seed: an integer in [0, 2^64)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {value}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _check_printable(coefficients: list[Fraction]) -> None:
    """Refuse, with DomainError, coefficients that Python cannot write as text:
    int's string conversion stops at ``sys.get_int_max_str_digits()`` decimal
    digits (4300 by default, 0 for no limit)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        return
    bound = 10**limit
    for k, c in enumerate(coefficients, 1):
        if abs(c.numerator) >= bound or c.denominator >= bound:
            raise DomainError(
                f"coefficient c_{k} has more than {limit} decimal digits, the limit of "
                "Python's int-to-text conversion (sys.get_int_max_str_digits); "
                "lower --max-order"
            )


def _cmd_series_check(args, started: float) -> None:
    # the exact coefficients check p in (0, 1] before it is rounded to a float
    exact = taylor_coefficients_exact(args.p, args.max_order)
    _check_printable(exact)
    pairs = {repr(z): remainder_check(float(args.p), z) for z in _REMAINDER_GRID}
    remainders = {which: {z: r[which] for z, r in pairs.items()} for which in ("odd", "even")}
    fields = {
        "coefficients": [float(c) for c in exact],
        "coefficients_exact": exact,
        "remainders": remainders,
    }
    _emit_json(args, fields, started)


def _chain_config(args, chain_seed: int) -> ChainConfig:
    return ChainConfig(args.sweeps, args.burnin, args.thin, args.replicas, chain_seed)


def _kernel_meta(swept: bool, sampled: bool) -> dict:
    """The sidecar's record of the kernels that ran: "sweep_kernel" ("c" or
    "python") and "sweep_path" when the run ``swept``, "sample_path" when it
    ``sampled`` its graphs.  The twins have no path, so the paths are left out
    when they ran."""
    from ._csweep import library

    paths = library().paths
    record = {}
    if swept:
        record["sweep_kernel"] = "c" if paths else "python"
        record["sweep_path"] = paths.get("sweep_block")
    if sampled:
        record["sample_path"] = paths.get("sample_rows")
    return {key: value for key, value in record.items() if value is not None}


def _cmd_mcmc_run(args, started: float) -> None:
    params = ModelParams(n=args.n, p=args.p, beta=args.beta)
    cfg = _chain_config(args, derive_seed(args.seed, 2))
    check_chain_work(params.n, cfg, 1)
    g, graph_seed = _load_or_sample_graph(args, params)
    burn_in = cfg.resolved_burn_in(params.n)
    _log(
        f"running {cfg.replicas} replica(s), {cfg.sweeps} sweeps each "
        f"(burn-in {burn_in}, thin {cfg.thin})"
    )
    replicas = run_chain(g, params, cfg)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["graph_seed", "replica_id", "sweep_index", "m_scaled"])
    seed_field = "" if graph_seed is None else graph_seed
    for replica_id, values in enumerate(replicas):
        for j, value in enumerate(values):
            writer.writerow([seed_field, replica_id, burn_in + (j + 1) * cfg.thin, repr(value)])
    _log(f"retained {sum(map(len, replicas))} samples")
    _emit(buf.getvalue(), args.out, started, _kernel_meta(True, graph_seed is not None))


def _cmd_clt_experiment(args, started: float) -> None:
    params = ModelParams(n=args.n, p=args.p, beta=args.beta)
    cfg = _chain_config(args, 0)
    _log(f"{args.graphs} graphs at n={params.n}, {cfg.replicas} replica(s) each")
    record = quenched_experiment(params, cfg, args.graphs, master_seed=args.seed,
                                 epsilon=args.epsilon, threads=args.threads)
    _emit_json(args, asdict(record), started, _kernel_meta(True, True))


def _add_model_flags(sub, *, beta=True):
    sub.add_argument("--n", type=int, required=True, help="number of sites")
    sub.add_argument("--p", type=float, required=True, help="edge probability in (0, 1]")
    if beta:
        sub.add_argument("--beta", type=float, required=True, help="inverse temperature")


def _add_chain_flags(sub):
    sub.add_argument("--sweeps", type=int, required=True, help="total sweeps incl. burn-in")
    sub.add_argument("--burnin", type=int, default=None, help="burn-in sweeps (default 10 sqrt(n))")
    sub.add_argument("--thin", type=int, default=1, help="record every thin-th sweep")
    sub.add_argument("--replicas", type=int, default=1, help="independent replicas")


def _graph_sample_flags(sub) -> None:
    _add_model_flags(sub, beta=False)
    sub.set_defaults(beta=0.0)
    sub.add_argument("--seed", type=_seed, default=0, help="64-bit master seed")


def _exact_partition_flags(sub) -> None:
    _add_model_flags(sub)
    sub.add_argument("--seed", type=_seed, default=0, help="master seed when sampling the graph")
    sub.add_argument("--graph", default=None, help="read the graph from this file instead")


def _exact_moments_flags(sub) -> None:
    _add_model_flags(sub)
    sub.add_argument("--g", default="one", help="test function (one, gauss, cosine, bump:c,w)")


def _exact_oracle_flags(sub) -> None:
    _add_model_flags(sub)
    sub.add_argument("--g", default="one")
    sub.add_argument("--moment", choices=("first", "second"), required=True)


def _asym_predict_flags(sub) -> None:
    _add_model_flags(sub)
    sub.add_argument("--g", default="one")
    sub.add_argument("--variant", choices=("a", "b", "c"), required=True)


def _series_check_flags(sub) -> None:
    sub.add_argument(
        "--p",
        type=_rational,
        required=True,
        help="edge probability; fractions like 1/3 and decimals stay exact",
    )
    sub.add_argument("--max-order", type=int, default=8, dest="max_order")


def _mcmc_run_flags(sub) -> None:
    _add_model_flags(sub)
    sub.add_argument("--seed", type=_seed, default=0, help="master seed (graph + chains)")
    sub.add_argument("--graph", default=None, help="read the graph from this file instead")
    _add_chain_flags(sub)


def _clt_experiment_flags(sub) -> None:
    _add_model_flags(sub)
    sub.add_argument("--graphs", type=int, required=True, help="number of disorder graphs")
    _add_chain_flags(sub)
    sub.add_argument("--epsilon", type=float, default=0.1, help="distance threshold")
    sub.add_argument("--seed", type=_seed, default=0, help="master seed")
    sub.add_argument("--threads", type=int, default=1, help="worker threads over graphs")


# Each command: its help line, the function that adds its own flags and its
# handler, which main calls with the parsed arguments and the start time.
_COMMANDS = {
    "graph-sample": ("sample a disorder graph to the text format", _graph_sample_flags,
                     _cmd_graph_sample),
    "exact-partition": ("enumerate one graph's partition sum and law", _exact_partition_flags,
                        _cmd_exact_partition),
    "exact-moments": ("closed-form annealed moments", _exact_moments_flags, _cmd_exact_moments),
    "exact-oracle": ("brute-force disorder average (tiny n)", _exact_oracle_flags,
                     _cmd_exact_oracle),
    "asym-predict": ("asymptotic log partition prediction", _asym_predict_flags,
                     _cmd_asym_predict),
    "series-check": ("Taylor coefficients and remainders of the edge function",
                     _series_check_flags, _cmd_series_check),
    "mcmc-run": ("Glauber chain samples as CSV", _mcmc_run_flags, _cmd_mcmc_run),
    "clt-experiment": ("multi-graph comparison to the Gaussian law", _clt_experiment_flags,
                       _cmd_clt_experiment),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The process's parser of ``command`` alone, or of all eight commands
    when it is None, built on the first call and only read after it.  A
    parser of one command parses that command's arguments as the full one
    does, so ``main`` builds only the one it is called for."""
    parser = argparse.ArgumentParser(
        prog="dilutecw",
        description="Dilute mean-field Ising on directed random graphs: "
        "exact thermodynamics, asymptotics, Monte Carlo.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, handler) in _COMMANDS.items():
        if command in (None, name):
            sub = commands.add_parser(name, help=help_line)
            add_flags(sub)
            sub.add_argument("--out", default=None, help="output path (default stdout)")
            sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # --help, --version, a bad command or none at all go to the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        args.func(args, time.perf_counter())
        return 0
    except DomainError as err:
        _log(f"error: {err}")
        return 2
    except CapacityError as err:
        _log(f"error: capacity: {err}")
        return 3
    except GraphFormatError as err:
        _log(f"error: bad graph file: {err}")
        return 4
    except (ValueError, OSError) as err:
        _log(f"error: {err}")
        return 4
    except KeyboardInterrupt:
        _log("error: interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
