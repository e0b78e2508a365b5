"""Registry of weight functions applied to the scaled magnetization.

Partition sums in this package are weighted by g(m) where m is the scaled
magnetization; every g here is bounded, continuous, and nonnegative, which
is what the exact and asymptotic identities assume.  The registry is closed:
four named families and nothing else.

    one            constant 1 (plain partition function)
    gauss          exp(-x^2)
    cosine         raised cosine (1 + cos x) / 2
    bump:c,w       mollifier exp(1 - 1/(1 - u^2)) with u = (x - c)/w,
                   zero outside |u| < 1

The bump is the only family with parameters and the only one with compact
support; ``support`` exposes the interval so quadrature can restrict to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = ["TestFunction", "make_test_function", "parse_test_function", "REGISTRY_NAMES"]

REGISTRY_NAMES = ("one", "gauss", "cosine", "bump")


@dataclass(frozen=True)
class TestFunction:
    """A named weight function; call it like a scalar function of one float."""

    name: str
    params: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.name not in REGISTRY_NAMES:
            raise DomainError(
                f"unknown test function {self.name!r}, expected one of {REGISTRY_NAMES}"
            )
        if self.name == "bump":
            if len(self.params) != 2:
                raise DomainError("bump takes exactly two parameters: center, width")
            center, width = self.params
            if not width > 0:
                raise DomainError(f"bump width must be positive, got {width}")
            # false for a non-finite center or width, and for a support whose
            # ends or length overflow a double
            if not math.isfinite((center + width) - (center - width)):
                raise DomainError(
                    f"bump support [center - width, center + width] must have finite "
                    f"ends and length, got center, width = {self.params}"
                )
        elif self.params:
            raise DomainError(f"{self.name} takes no parameters")

    def __call__(self, x: float) -> float:
        if self.name == "one":
            return 1.0
        if self.name == "gauss":
            return math.exp(-x * x)
        if self.name == "cosine":
            return 0.5 * (1.0 + math.cos(x))
        center, width = self.params
        u = (x - center) / width
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - u * u))

    @property
    def support(self) -> tuple[float, float] | None:
        """Closed support interval for compactly supported members, else None."""
        if self.name == "bump":
            center, width = self.params
            return (center - width, center + width)
        return None

    @property
    def quadratic_decay(self) -> float:
        """alpha such that g(x) exp(alpha x^2) stays bounded with an O(1) scale.

        Quadrature against Gaussian weights folds this into its change of
        variables, so a rapidly decaying g does not concentrate the
        transformed integrand onto a handful of nodes.
        """
        return 1.0 if self.name == "gauss" else 0.0

    def label(self) -> str:
        """Canonical spelling, re-parseable by parse_test_function."""
        if self.params:
            return self.name + ":" + ",".join(repr(v) for v in self.params)
        return self.name


def make_test_function(name: str, *params: float) -> TestFunction:
    return TestFunction(name=name, params=tuple(float(v) for v in params))


def parse_test_function(spec: str) -> TestFunction:
    """Parse a CLI-style spelling: a bare name, or 'bump:center,width'."""
    name, sep, tail = spec.partition(":")
    name = name.strip()
    if not sep:
        return make_test_function(name)
    try:
        params = tuple(float(v) for v in tail.split(","))
    except ValueError:
        raise DomainError(f"cannot parse parameters in test function spec {spec!r}") from None
    return make_test_function(name, *params)
