"""Exact rational Bernoulli numbers for the Euler-Maclaurin tail.

Values follow the first convention (B_1 = -1/2) and come from the
defining recurrence

    sum_{k=0}^{n} C(n+1, k) * B_k = 0        (n >= 1),

solved for B_n with exact ``fractions.Fraction`` arithmetic. Only the
even indices feed the tail correction; the table is capped at index 60
because beyond that the coefficients B_{2mu}/(2mu)! stop helping at
binary64 working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ParameterError

__all__ = ["MAX_INDEX", "BernoulliTable", "build_table"]

# Hard cap on the table; 2*(tail order + 1) must stay at or below this.
MAX_INDEX = 60


@dataclass(frozen=True)
class BernoulliTable:
    """Immutable table of B_0 .. B_max_index as exact rationals."""

    max_index: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.max_index + 1:
            raise ParameterError(
                f"table length {len(self.values)} does not match max_index {self.max_index}"
            )

    def __getitem__(self, index: int) -> Fraction:
        if type(index) is not int or not 0 <= index <= self.max_index:
            raise ParameterError(f"index {index!r} outside table range 0..{self.max_index}")
        return self.values[index]


def build_table(max_index: int) -> BernoulliTable:
    """Build B_0 .. B_max_index exactly.

    ``max_index`` must be even, positive, and at most ``MAX_INDEX``.
    """
    if type(max_index) is not int or max_index < 2 or max_index % 2 != 0:
        raise ParameterError(f"max_index must be a positive even integer, got {max_index!r}")
    if max_index > MAX_INDEX:
        raise ParameterError(f"max_index {max_index} exceeds the table cap {MAX_INDEX}")

    values: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
    for n in range(2, max_index + 1):
        if n % 2 == 1:
            # Odd-index values above B_1 vanish; keeping them explicit
            # preserves direct indexing.
            values.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    return BernoulliTable(max_index=max_index, values=tuple(values))


@lru_cache(maxsize=None)
def _full_table() -> BernoulliTable:
    """Shared table at the cap; prefixes agree with smaller builds."""
    return build_table(MAX_INDEX)
