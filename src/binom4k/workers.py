"""The fixed-point passes of `series.sum_many` in forked worker processes,
used when jobs > 1 (imported only then, so a serial run never loads it).

Each work item is one pass, (P, members) for the specs that share x and
the binomial power, and the items go into at most min(jobs, items, usable
CPUs) bins.  The caller runs bin 0 and a child made by os.fork runs each
other bin, sending back the marshalled (S, E, seconds) of each of its items
through a pipe.  A bare fork costs about 2.5 ms and adds nothing to the
caller's ru_maxrss (the child's is separate), where a multiprocessing
pool takes about 40 ms to start; binom4k starts no threads, so forking is
safe, and a child only sums, writes and leaves by os._exit.  Where os.fork
is missing or fails, the caller runs every bin itself.
"""

from __future__ import annotations

import marshal
import os

from . import series


def run_passes(items: list, jobs: int) -> list[tuple]:
    """(item, outcome) for every work item: its `series._run_pass` result,
    or an ArithmeticError when the worker that ran it failed."""
    bins = _bins(items, min(jobs, _usable_cpus()))
    return [(item, outcome) for b, outcomes in zip(bins, _run_bins(bins))
            for item, outcome in zip(b, outcomes)]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pass_cost(item) -> int:
    """Estimated cost of a work item's pass: P times the terms it sums."""
    prec, members = item
    return prec * sum(K - spec.start + 1 for _, spec, K, _, _ in members)


def _bins(items: list, procs: int) -> list[list]:
    """The work items in at most `procs` bins: largest estimated cost first,
    each into the bin with the least cost so far."""
    bins: list[list] = [[] for _ in range(min(procs, len(items)))]
    loads = [0] * len(bins)
    for item in sorted(items, key=_pass_cost, reverse=True):
        b = loads.index(min(loads))
        bins[b].append(item)
        loads[b] += _pass_cost(item)
    return bins


def _child_body(items: list, fd: int) -> None:
    """A forked child's work: the passes of its bin, written to the pipe `fd`."""
    with os.fdopen(fd, "wb") as out:
        out.write(marshal.dumps([series._run_pass(item) for item in items]))


def _child_outcomes(items: list, data: bytes, status: int) -> list:
    """The child's results, or for each item an ArithmeticError when the child
    failed or wrote a short result."""
    try:
        outcomes = marshal.loads(data) if status == 0 else None
    except (EOFError, ValueError, TypeError):
        outcomes = None
    if isinstance(outcomes, list) and len(outcomes) == len(items):
        return outcomes
    what = "wrote a short result" if status == 0 else "failed"
    return [ArithmeticError(f"worker process {what} (exit status {status})")] * len(items)


def _run_bins(bins: list[list]) -> list[list]:
    """The `series._run_pass` outcome of every item of every bin.  The caller
    runs bin 0 and, where os.fork exists and succeeds, a child runs each
    other bin; elsewhere the caller runs them too.  Every pipe is read before
    its child is reaped, and every child is reaped, killed first if the
    caller's own bin raised."""
    outcomes: list = [None] * len(bins)
    children = []  # (bin index, pid, read end of its pipe)
    try:
        for b in range(1, len(bins)) if hasattr(os, "fork") else ():
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    _child_body(bins[b], w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((b, pid, os.fdopen(r, "rb")))
        forked = {b for b, _, _ in children}
        for b, items in enumerate(bins):
            if b not in forked:
                outcomes[b] = [series._run_pass(item) for item in items]
        while children:
            b, pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            outcomes[b] = _child_outcomes(bins[b], data, status)
    finally:
        if children:
            import signal  # only this path needs it, and its import takes about 1 ms
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes
