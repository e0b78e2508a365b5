"""Dilute Curie-Weiss model on directed random graphs.

Exact quenched and annealed thermodynamics at small sizes, closed-form
asymptotic predictions, and Glauber-dynamics Monte Carlo for the scaled
magnetization, all sharing one set of core types.
"""

from .errors import CapacityError, DomainError, GraphFormatError
from .model import DisorderGraph, ModelParams
from .graph import GraphSeed, read_graph, sample_graph, write_graph
from .testfunctions import TestFunction, make_test_function, parse_test_function

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DomainError",
    "GraphFormatError",
    "DisorderGraph",
    "ModelParams",
    "GraphSeed",
    "read_graph",
    "sample_graph",
    "write_graph",
    "TestFunction",
    "make_test_function",
    "parse_test_function",
    "__version__",
]
