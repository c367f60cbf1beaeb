"""Operation counting: a semiring wrapper that tallies every scalar call.

Kept out of ``semirings`` because ``OpCounter`` is a dataclass (callers take
``dataclasses.asdict`` of it), and a plain solve should not pay for
importing ``dataclasses``.  ``semipath`` loads this module on first access
to either name.
"""

from dataclasses import dataclass

from .semirings import Semiring


@dataclass
class OpCounter:
    """Tallies of the scalar operations performed through a CountingSemiring."""

    add_count: int = 0
    mul_count: int = 0
    closure_count: int = 0
    inverse_count: int = 0  # always 0; benchmarks/run.py reads it


class CountingSemiring(Semiring):
    """Wrap another instance and count every add/mul/closure call.

    Results are identical to the wrapped instance's; only the counter is
    touched.  A counter belongs to a single solver invocation: create a
    fresh wrapper per measurement and never share one across concurrent
    solves.
    """

    def __init__(self, inner, counter=None):
        self.inner = inner
        self.counter = counter if counter is not None else OpCounter()
        self.name = inner.name
        self.idempotent = inner.idempotent
        self.complete = inner.complete
        self.has_inverses = inner.has_inverses
        self.approximate = inner.approximate
        self.zero = inner.zero
        self.one = inner.one

    def add(self, a, b):
        self.counter.add_count += 1
        return self.inner.add(a, b)

    def mul(self, a, b):
        self.counter.mul_count += 1
        return self.inner.mul(a, b)

    def closure(self, a):
        self.counter.closure_count += 1
        return self.inner.closure(a)

    def contains(self, v):
        return self.inner.contains(v)

    def sentinels(self):
        return self.inner.sentinels()

    def sample(self, rng):
        return self.inner.sample(rng)

    def eq(self, a, b):
        return self.inner.eq(a, b)
