"""Query budgets and graceful degradation.

C2LSH's query algorithm is naturally interruptible: every virtual-
rehashing round (``R = c^i``) only *widens* the candidate set, so the
verified candidates at any smaller radius are a principled best-effort
answer. A :class:`QueryBudget` caps the work a query may perform —
wall-clock deadline, charged I/O pages, verified candidates — and when a
cap is hit mid-search the engine finishes verifying the candidates it has
already collected and returns them with
``QueryStats.degraded = True``, ``QueryStats.budget_exhausted`` naming
the tripped cap, and ``QueryStats.final_radius`` recording the achieved
radius. A budgeted query never raises because of its budget.

Budgets are checked at round boundaries (after the round's counting and
verification), so a round in flight always completes: results are always
*verified* true distances, never raw collision-count guesses. The I/O cap
requires a :class:`repro.storage.PageManager` on the index — without one
there is no page accounting to compare against and the cap is inert. The
``deadline_s`` cap reads the wall clock and is therefore the one
non-deterministic cap; ``max_io_pages`` and ``max_candidates`` degrade
deterministically (same seed, same budget ⇒ same degraded result).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

__all__ = ["QueryBudget", "as_budget_list"]


@dataclass(frozen=True)
class QueryBudget:
    """Work limits for one query, with graceful degradation on overrun.

    Parameters
    ----------
    deadline_s:
        Wall-clock seconds the query may run (measured from query entry,
        including hashing).
    max_io_pages:
        Page reads+writes the query may charge to its page manager.
    max_candidates:
        Verified candidates after which the search stops growing.
    started_at:
        Optional explicit ``time.perf_counter()`` stamp anchoring the
        deadline clock. When set, ``deadline_s`` is measured from this
        moment rather than from query entry — so work done *before* the
        engine saw the query (admission-queue wait in a serving
        front-end, batched hashing, retry backoff) counts against the
        deadline instead of silently restarting the clock. ``None``
        (default) keeps the historical entry-anchored behavior.

    All caps default to ``None`` (unlimited); at least one must be set
    (``started_at`` is an anchor, not a cap, and does not count).
    The same object works on the sequential and batch paths of
    :class:`repro.core.c2lsh.C2LSH` and on :class:`repro.core.qalsh.QALSH`.
    """

    deadline_s: float | None = None
    max_io_pages: int | None = None
    max_candidates: int | None = None
    started_at: float | None = None

    def __post_init__(self):
        if (self.deadline_s is None and self.max_io_pages is None
                and self.max_candidates is None):
            raise ValueError("a QueryBudget must set at least one limit")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.max_io_pages is not None and self.max_io_pages < 1:
            raise ValueError(
                f"max_io_pages must be >= 1, got {self.max_io_pages}"
            )
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )

    def effective_start(self, default=None):
        """The deadline anchor: ``started_at`` when set, else ``default``.

        ``default`` is the engine's query-entry stamp (a
        ``time.perf_counter()`` value; ``None`` falls through to "now").
        Every deadline comparison routes through this so an explicit
        anchor wins everywhere — the block driver, supervision.
        """
        if self.started_at is not None:
            return self.started_at
        return default if default is not None else time.perf_counter()

    def with_start(self, started_at):
        """A copy of this budget anchored at ``started_at``.

        Serving front-ends stamp each request at admission with
        ``budget.with_start(time.perf_counter())`` so queue wait counts
        against the deadline.
        """
        return replace(self, started_at=float(started_at))

    def remaining_s(self, started, now=None):
        """Wall-clock seconds left before ``deadline_s``, or ``None``.

        ``started`` is the query's ``time.perf_counter()`` entry stamp
        (``started_at``, when set, overrides it). Returns ``None`` when
        the budget has no deadline; never negative. The sharded engine's
        supervision layer uses this to derive per-call deadlines on the
        worker protocol (remaining budget plus the engine's round
        timeout).
        """
        if self.deadline_s is None:
            return None
        now = now if now is not None else time.perf_counter()
        return max(0.0, self.deadline_s - (now - self.effective_start(started)))


def tripped_cap(budget, n_candidates, io_pages, io_enabled, started, now):
    """Which cap of ``budget`` a query has exhausted, or ``""``.

    The one copy of the cap order. Deterministic caps are checked first
    so degraded results are reproducible whenever the deadline is not
    the binding limit: ``"candidates"``, then ``"io_pages"``, then
    ``"deadline"``. The block driver, which attributes candidates and I/O
    pages to each query itself, passes those running totals.
    ``io_enabled`` tells whether page accounting is live (without it the
    I/O cap is inert).
    The deadline is measured from the budget's ``started_at`` when set,
    else from ``started``.
    """
    if (budget.max_candidates is not None
            and n_candidates >= budget.max_candidates):
        return "candidates"
    if (budget.max_io_pages is not None and io_enabled
            and io_pages >= budget.max_io_pages):
        return "io_pages"
    if (budget.deadline_s is not None
            and now - budget.effective_start(started) >= budget.deadline_s):
        return "deadline"
    return ""


def as_budget_list(budget, n_queries):
    """Normalize a batch ``budget`` argument to a per-query list or ``None``.

    The batch entry points accept either one :class:`QueryBudget` applied
    to every query, or a sequence of ``n_queries`` entries (``None``
    entries mean "that query is unbudgeted") — which is how a serving
    front-end coalesces requests carrying *different* per-client budgets
    into one lockstep batch. Returns ``None`` when nothing is budgeted,
    else a list of length ``n_queries``.
    """
    if budget is None:
        return None
    if isinstance(budget, QueryBudget):
        return [budget] * n_queries
    budgets = list(budget)
    if len(budgets) != n_queries:
        raise ValueError(
            f"got {len(budgets)} budgets for {n_queries} queries"
        )
    for b in budgets:
        if b is not None and not isinstance(b, QueryBudget):
            raise TypeError(
                f"budget entries must be QueryBudget or None, got "
                f"{type(b).__name__}"
            )
    if all(b is None for b in budgets):
        return None
    return budgets
