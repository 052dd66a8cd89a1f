"""Resource budgets for query evaluation (deadlines, row/binding caps).

The paper's descendant patterns compile to SPARQL property paths whose
transitive closures can blow up combinatorially on adversarial plan
graphs (see Yakovets et al., *Towards Query Optimization for SPARQL
Property Paths*).  A shared service cannot let one such query hold a
worker forever, so evaluation is governed by a :class:`Budget`: a
wall-clock deadline plus optional caps on produced result rows and on
*visited bindings* (partial solutions / closure nodes explored — the
quantity that actually grows during a blow-up, long before any row is
returned).

Budgets are **cooperative**: the evaluator calls :meth:`Budget.tick` in
its join and BFS loops and :meth:`Budget.check` at coarser boundaries.
Ticks are counted on every call but the clock is consulted only every
``check_interval`` ticks, so the steady-state cost is an integer
increment and a compare.

Threading the budget through the recursive evaluator would touch every
signature, so the active budget travels in a :mod:`contextvars` context
variable instead: :func:`activate` installs it for a ``with`` block (and
only for the current thread/context), and the evaluator picks it up
with :func:`active_budget` once per loop setup.

Typed failures:

* :class:`EvaluationTimeout` — the deadline passed;
* :class:`BudgetExceeded` — a row or visited-binding cap was hit.

Both derive from :class:`LimitError`, which carries a stable ``kind``
string used by the engine's :class:`~repro.core.engine.PlanError`
records and the server's error taxonomy.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


#: The process-default monotonic clock.  Swappable via
#: :func:`install_clock` so time-sensitive tests can drive deadlines
#: deterministically (``repro.testing.clock.FakeClock``) instead of
#: sleeping through them.
_default_clock: Callable[[], float] = time.monotonic


def default_clock() -> float:
    """Read the process-default monotonic clock (see :func:`install_clock`)."""
    return _default_clock()


def install_clock(clock: Optional[Callable[[], float]] = None) -> None:
    """Install *clock* as the process-default budget clock.

    ``install_clock(None)`` restores ``time.monotonic``.  Budgets built
    without an explicit ``clock=`` argument — including every budget the
    HTTP fronts build from request parameters — read the installed clock
    on each consultation, so a test can swap it even for budgets created
    later inside server threads.
    """
    global _default_clock
    _default_clock = clock if clock is not None else time.monotonic


class LimitError(RuntimeError):
    """Base class for budget violations (a typed, catchable family)."""

    #: Stable machine-readable discriminator ("timeout" / "budget").
    kind = "limit"


class EvaluationTimeout(LimitError):
    """The budget's wall-clock deadline expired during evaluation."""

    kind = "timeout"


class BudgetExceeded(LimitError):
    """A row or visited-binding cap was exhausted during evaluation."""

    kind = "budget"


class Budget:
    """A cooperative resource budget for one unit of evaluation work.

    Parameters
    ----------
    timeout_ms:
        Wall-clock deadline in milliseconds from construction (``None``
        = no deadline).
    max_rows:
        Cap on result rows produced by one query evaluation.
    max_bindings:
        Cap on visited bindings: partial solutions extended in the BGP
        join plus nodes expanded in property-path closures.  This is the
        knob that stops a combinatorial blow-up that never yields a row.
    check_interval:
        Consult the clock every this-many ticks (cost/precision
        trade-off; the default re-checks every 256 visited bindings).
    clock:
        Injectable monotonic clock, for deterministic tests.  ``None``
        (the default) reads the process-default clock on every
        consultation, so :func:`install_clock` affects budgets built
        before *and* after the install.
    """

    __slots__ = (
        "timeout_ms",
        "max_rows",
        "max_bindings",
        "check_interval",
        "started",
        "deadline",
        "rows",
        "bindings",
        "_clock",
        "_next_check",
    )

    def __init__(
        self,
        timeout_ms: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bindings: Optional[int] = None,
        check_interval: int = 256,
        clock: Optional[Callable[[], float]] = None,
    ):
        if timeout_ms is not None and timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        if max_bindings is not None and max_bindings < 1:
            raise ValueError("max_bindings must be >= 1")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.timeout_ms = timeout_ms
        self.max_rows = max_rows
        self.max_bindings = max_bindings
        self.check_interval = check_interval
        self._clock = clock if clock is not None else default_clock
        self.started = self._clock()
        self.deadline = (
            self.started + timeout_ms / 1000.0 if timeout_ms is not None else None
        )
        self.rows = 0
        self.bindings = 0
        self._next_check = check_interval

    # ------------------------------------------------------------------
    # Cooperative checkpoints
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Raise :class:`EvaluationTimeout` if the deadline has passed."""
        if self.deadline is not None and self._clock() > self.deadline:
            raise EvaluationTimeout(
                f"evaluation exceeded its {self.timeout_ms:g} ms deadline"
            )

    def tick(self, count: int = 1) -> None:
        """Record *count* visited bindings; the cheap hot-loop checkpoint.

        Raises :class:`BudgetExceeded` when the binding cap is hit and
        :class:`EvaluationTimeout` when a (throttled) clock check finds
        the deadline passed.
        """
        self.bindings += count
        if self.max_bindings is not None and self.bindings > self.max_bindings:
            raise BudgetExceeded(
                f"evaluation visited more than {self.max_bindings} bindings"
            )
        if self.bindings >= self._next_check:
            self._next_check = self.bindings + self.check_interval
            self.check()

    def count_row(self) -> None:
        """Record one produced result row (raises past ``max_rows``)."""
        self.rows += 1
        if self.max_rows is not None and self.rows > self.max_rows:
            raise BudgetExceeded(
                f"evaluation produced more than {self.max_rows} result rows"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def expired(self) -> bool:
        """Deadline passed?  (Non-raising; used to short-circuit work
        that has not started yet.)"""
        return self.deadline is not None and self._clock() > self.deadline

    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self.started

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds until the deadline (``None`` without one)."""
        if self.deadline is None:
            return None
        return max(0.0, (self.deadline - self._clock()) * 1000.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Budget(timeout_ms={self.timeout_ms}, max_rows={self.max_rows}, "
            f"max_bindings={self.max_bindings}, rows={self.rows}, "
            f"bindings={self.bindings})"
        )


#: The budget governing evaluation on the current thread/context, if any.
_ACTIVE: contextvars.ContextVar[Optional[Budget]] = contextvars.ContextVar(
    "optimatch_active_budget", default=None
)


def active_budget() -> Optional[Budget]:
    """The budget installed by :func:`activate` for this context."""
    return _ACTIVE.get()


@contextmanager
def activate(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install *budget* as the active budget for the ``with`` block.

    ``activate(None)`` is a supported no-op so callers can thread an
    optional budget without branching.
    """
    if budget is None:
        yield None
        return
    token = _ACTIVE.set(budget)
    try:
        yield budget
    finally:
        _ACTIVE.reset(token)
