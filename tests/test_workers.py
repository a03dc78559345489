"""`sum_many` with jobs > 1: its passes in forked worker processes give the
same enclosures and errors as one process, never use more processes than
jobs, work items or usable CPUs, and a worker that fails gives ERROR, never
PASS."""

import marshal
import os
from fractions import Fraction as F

import pytest

from binom4k import series, workers
from binom4k.catalog import builtin_catalog
from binom4k.cli import run_verify_all
from binom4k.series import SeriesSpec, sum_many

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _catalog_batch(digits):
    return [(spec, digits) for entry in builtin_catalog() for _, spec in entry.components]


# a zero spec, and a spec so close to the radius that its cutoff raises
# PrecisionError, among the catalog components
MIXED = (_catalog_batch(30)
         + [(SeriesSpec(x=F(1, 16)), 30),
            (SeriesSpec(x=F(27, 256) - F(1, 10**6), channels={0: (1,)}), 60)])


def _outcomes(results):
    return [(type(r), str(r)) if isinstance(r, Exception) else (r.lo, r.hi, r.prec)
            for r, _ in results]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children sum_many forks."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.mark.parametrize("batch", [_catalog_batch(60), MIXED], ids=["catalog-60", "mixed"])
def test_every_jobs_gives_the_same_results(monkeypatch, forks, batch):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 3)
    expected = _outcomes(sum_many(batch, 1))
    assert not forks
    for jobs in (2, 3):
        forks.clear()
        assert _outcomes(sum_many(batch, jobs)) == expected, jobs
        assert len(forks) == jobs - 1
    if batch is MIXED:
        assert expected[-2][:2] == (0, 0) and expected[-1][0] is series.PrecisionError


@pytest.mark.parametrize("missing", ["no fork", "fork fails"])
def test_without_fork_every_bin_runs_in_process(monkeypatch, missing):
    """The same bins run in the caller: every spec is summed once, in one
    pass per group, and every result is the same."""
    batch = _catalog_batch(60)
    expected = _outcomes(sum_many(batch, 1))
    if missing == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        def failing():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", failing)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 3)
    passes, kernel = [], series.fixed_point_terms

    def recorded(specs, cutoffs, prec):
        passes.append(specs)
        return kernel(specs, cutoffs, prec)

    monkeypatch.setattr(series, "fixed_point_terms", recorded)
    assert _outcomes(sum_many(batch, 3)) == expected
    summed = [spec for specs in passes for spec in specs]
    assert sorted(map(id, summed)) == sorted(id(spec) for spec, _ in batch if not spec.is_zero())
    assert len(passes) == len({(spec.x, spec.binomial_power) for spec, _ in batch})


@pytest.mark.parametrize("cpus, jobs, batch, children", [
    (2, 100_000, _catalog_batch(30), 1),
    (1, 8, _catalog_batch(30), 0),
    (2, 2, [(SeriesSpec(x=F(1, 16), channels={0: (1,)}), 30)], 0),
])
def test_process_count_is_bounded(monkeypatch, forks, cpus, jobs, batch, children):
    """At most min(jobs, work items, usable CPUs) processes, the caller
    included; a single spec is one work item."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    sum_many(batch, jobs)
    assert len(forks) == children


def test_usable_cpus_is_positive():
    assert workers._usable_cpus() >= 1


def _exit_3(items, fd):
    os._exit(3)


def _short_write(items, fd):
    os.write(fd, marshal.dumps([[1, 2, 3]])[:-3])


def _no_outcomes(items, fd):
    os.write(fd, marshal.dumps([]))


_real_body = workers._child_body


def _write_then_exit_3(items, fd):
    _real_body(items, fd)
    os._exit(3)


@pytest.mark.parametrize("body, message", [
    (_exit_3, "worker process failed (exit status 3)"),
    (_write_then_exit_3, "worker process failed (exit status 3)"),
    (_short_write, "worker process wrote a short result (exit status 0)"),
    (_no_outcomes, "worker process wrote a short result (exit status 0)"),
])
def test_failed_worker_gives_errors(monkeypatch, forks, body, message):
    batch = _catalog_batch(30)
    expected = _outcomes(sum_many(batch, 1))
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(workers, "_child_body", body)
    got = _outcomes(sum_many(batch, 2))
    assert len(forks) == 1
    failed = [n for n, outcome in enumerate(got) if outcome != expected[n]]
    assert 0 < len(failed) < len(batch)
    assert all(got[n] == (ArithmeticError, message) for n in failed)
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)

    records = run_verify_all(30, 2)
    errors = [r for r in records if r.status != "PASS"]
    assert errors and all(r.status == "ERROR" and r.message == message and r.lhs == ""
                          for r in errors)
    assert len(errors) < len(records)


def test_children_are_reaped_when_the_callers_bin_raises(monkeypatch, forks):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    caller, run_pass = os.getpid(), series._run_pass

    def failing(item):
        if os.getpid() == caller:
            raise RuntimeError("planted failure in the caller's bin")
        return run_pass(item)

    monkeypatch.setattr(series, "_run_pass", failing)
    with pytest.raises(RuntimeError, match="planted"):
        sum_many(_catalog_batch(30), 2)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)
