"""The layer functions that the benchmark's tracer wraps by name still exist.

``bench/tracing.py`` looks each name of ``LAYERS`` up in its module and reads
the work of a call from its bound arguments, so a rename in the package would
first break the traced benchmark pass.  These tests read ``bench/`` only: the
tracer's source is compiled in memory, and no bytecode is written there.
"""

import importlib
import inspect
import io
import types
from pathlib import Path

import pytest

from dilutecw import mcmc
from dilutecw.graph import GraphSeed, sample_graph, write_graph
from dilutecw.mcmc import ChainConfig
from dilutecw.model import ModelParams
from dilutecw.stats import EmpiricalMeasure


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


TRACING = _tracing()


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in TRACING.LAYERS.items() for name in names],
)
def test_every_traced_layer_exists(module, name):
    assert callable(getattr(importlib.import_module(f"dilutecw.{module}"), name))


def test_from_samples_is_a_classmethod():
    # the tracer rewraps it through the class dict
    assert isinstance(EmpiricalMeasure.__dict__["from_samples"], classmethod)


def test_run_chain_keeps_the_parameters_the_work_counter_reads():
    # g, params and cfg come first; the only other parameter is the
    # keyword-only stop, unset by default
    parameters = inspect.signature(mcmc.run_chain).parameters
    assert list(parameters)[:3] == ["g", "params", "cfg"]
    assert list(parameters)[3:] == ["stop"]
    assert parameters["stop"].kind is inspect.Parameter.KEYWORD_ONLY
    assert parameters["stop"].default is None


def test_work_counters_read_real_calls():
    # each WORK entry on a real call, wrapped as the tracer wraps it
    params = ModelParams(n=10, p=0.5, beta=0.5)
    g = sample_graph(params, GraphSeed(3))
    text = io.StringIO()
    write_graph(g, text)
    text = io.BytesIO(text.getvalue().encode("ascii"))
    cfg = ChainConfig(sweeps=20, burn_in=5, replicas=2)
    calls = {
        "graph.sample_graph": (params, GraphSeed(3)),
        "graph.read_graph": (text,),
        "mcmc.run_chain": (g, params, cfg),
        "exact.enumerate_partition": (g, params),
    }
    assert set(calls) == set(TRACING.WORK)
    tracer = TRACING.Tracer()
    for name, args in calls.items():
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"dilutecw.{module}"), attr)
        tracer.wrap(name, fn)(*args)
    work = {span["name"]: span["work"] for span in tracer.spans}
    assert work == {
        "graph.sample_graph": 100,
        "graph.read_graph": 100,
        "mcmc.run_chain": 10 * 20 * 2,
        "exact.enumerate_partition": 1 << 10,
    }
