"""Non-clairvoyant dispatch policies (replica selection).

EFT is clairvoyant: it needs :math:`p_i` at release to maintain exact
machine completion times (Section 4).  Real key-value stores do not
know request service times in advance; the systems the paper cites as
context — C3 (Suresh et al., NSDI'15) and Héron (Jaiman et al.,
SRDS'18) — rank replicas using *observable* signals instead.  This
module implements the two classic observable policies so the
simulation substrate can compare them against the clairvoyant EFT
upper baseline:

* :class:`LeastOutstanding` — pick the eligible machine with the
  fewest outstanding (dispatched, not yet finished) requests; ties by
  index.  The standard "least outstanding requests" load-balancer
  rule.
* :class:`C3Like` — a simplified C3 scoring rule: rank replicas by
  :math:`(1 + q_j)^3 \\cdot \\bar{s}_j`, where :math:`q_j` is the
  outstanding count and :math:`\\bar{s}_j` an exponentially weighted
  moving average of observed service times on :math:`M_j` (the cubing
  penalises queue build-up, C3's key idea).  Feedback (service time
  observations) arrives on task completion, which these policies
  track from the passage of simulated time.

Both are immediate-dispatch schedulers over the same driver as EFT, so
every metric, test harness and experiment applies unchanged.  They
observe completions *as of the current release time* — exactly the
information a coordinator has when the request arrives.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .dispatch import ImmediateDispatchScheduler
from .task import Task

__all__ = ["LeastOutstanding", "C3Like"]


class _OutstandingTracker(ImmediateDispatchScheduler):
    """Shared machinery: per-machine outstanding counts derived from
    dispatch history and the current time (a dispatched task is
    outstanding while ``now < its completion``).

    The counts are kept live: a ``(completion, machine)`` min-heap of
    the in-flight tasks is popped while its head has ``completion <=
    now``.  Submission follows release order, so ``now`` never goes
    back and a popped task never becomes outstanding again.
    """

    clairvoyant = False

    def __init__(self, m: int) -> None:
        super().__init__(m)
        #: (completion_time, machine) min-heap of in-flight tasks
        self._inflight: list[tuple[float, int]] = []
        self._outstanding: dict[int, int] = {j: 0 for j in range(1, m + 1)}

    def outstanding(self, now: float) -> dict[int, int]:
        """Outstanding request count per machine at time ``now``."""
        heap = self._inflight
        counts = self._outstanding
        while heap and heap[0][0] <= now:
            counts[heappop(heap)[1]] -= 1
        return dict(counts)

    def _record_dispatch(self, machine: int, completion: float) -> None:
        heappush(self._inflight, (completion, machine))
        self._outstanding[machine] += 1


class LeastOutstanding(_OutstandingTracker):
    """Least-outstanding-requests replica selection."""

    def __init__(self, m: int) -> None:
        super().__init__(m)
        self.name = "LOR"

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        eligible = sorted(task.eligible(self.m))
        counts = self.outstanding(task.release)
        machine = min(eligible, key=lambda j: (counts[j], j))
        start = max(task.release, self.completions[machine])
        self._record_dispatch(machine, start + task.proc)
        return machine, frozenset(eligible)


class C3Like(_OutstandingTracker):
    """Simplified C3 replica ranking.

    Score of machine :math:`M_j` for an arriving request:
    :math:`(1 + q_j)^3 \\cdot \\bar{s}_j` with :math:`\\bar{s}_j` an
    EWMA (factor ``alpha``) of service times of requests *completed*
    on :math:`M_j` by the arrival instant, initialised to 1.
    """

    def __init__(self, m: int, alpha: float = 0.3) -> None:
        super().__init__(m)
        if not (0 < alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.ewma: dict[int, float] = {j: 1.0 for j in range(1, m + 1)}
        self.name = "C3"
        #: (completion_time, machine, service_time) min-heap of pending feedback
        self._pending_feedback: list[tuple[float, int, float]] = []

    def _absorb_feedback(self, now: float) -> None:
        # Feedback must be absorbed in completion order for the EWMA to
        # be deterministic: the heap pops it in sorted order.
        pending = self._pending_feedback
        while pending and pending[0][0] <= now:
            _, machine, service = heappop(pending)
            self.ewma[machine] = (1 - self.alpha) * self.ewma[machine] + self.alpha * service

    def choose(self, task: Task) -> tuple[int, frozenset[int]]:
        now = task.release
        self._absorb_feedback(now)
        eligible = sorted(task.eligible(self.m))
        counts = self.outstanding(now)
        machine = min(
            eligible, key=lambda j: ((1 + counts[j]) ** 3 * self.ewma[j], j)
        )
        start = max(now, self.completions[machine])
        completion = start + task.proc
        self._record_dispatch(machine, completion)
        heappush(self._pending_feedback, (completion, machine, task.proc))
        return machine, frozenset(eligible)
