"""Tests of ``forks.fork_map``: the results and the first error of one
process on 1 to 4 usable CPUs, whatever the children do, and no child left
behind.

A function given to ``fork_map`` runs in a forked child or in this process;
the tests tell them apart by the pid, and count what a child did in the
child's own copy of a list.
"""

import contextlib
import os
import pickle
import time

import pytest

from alarm_pipeline.forks import fork_map, usable_cpus

from conftest import assert_no_children, count_forks, use_cpus

CPUS = (1, 2, 3, 4)


def square(task):
    return task * task


def fork_list(fn, tasks):
    """The results of ``fork_map(fn, tasks)`` as a list, the iterator closed."""
    with contextlib.closing(fork_map(fn, tasks)) as results:
        return list(results)


def in_child(parent):
    return os.getpid() != parent


def test_results_in_task_order_on_any_number_of_cpus(monkeypatch):
    forks = count_forks(monkeypatch)
    for cpus in CPUS:
        use_cpus(monkeypatch, cpus)
        assert usable_cpus() == cpus
        for n in (0, 1, 2, 3, 5, 9):
            forks.clear()
            assert fork_list(square, iter(range(n))) == [i * i for i in range(n)], (cpus, n)
            assert len(forks) == max(min(cpus, n) - 1, 0), (cpus, n)
            assert_no_children()
    # Results that pickle big and nested arrive whole.
    use_cpus(monkeypatch, 3)
    tasks = [bytes([i]) * (i << 16) for i in range(7)]
    assert fork_list(lambda task: [task, {"n": len(task)}], tasks) == [
        [task, {"n": len(task)}] for task in tasks]
    assert_no_children()


def test_usable_cpus_is_one_where_python_cannot_tell(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    forks = count_forks(monkeypatch)
    assert usable_cpus() == 1
    assert fork_list(square, range(5)) == [0, 1, 4, 9, 16]
    assert not forks


def test_failed_forks_leave_the_tasks_to_this_process(monkeypatch):
    fork = os.fork
    parent = os.getpid()
    computed_here = []

    def square_here(task):
        if not in_child(parent):
            computed_here.append(task)
        return square(task)

    for spare in (0, 1):  # every fork fails, or every fork after the first
        forks = [spare]

        def fork_while_spare():
            if not forks[0]:
                raise BlockingIOError("no process to spare")
            forks[0] -= 1
            return fork()

        monkeypatch.setattr(os, "fork", fork_while_spare)
        use_cpus(monkeypatch, 4)
        computed_here.clear()
        assert fork_list(square_here, range(10)) == [i * i for i in range(10)], spare
        assert_no_children()
        # child 1 computes tasks 1, 5 and 9 where it was forked
        assert computed_here == [i for i in range(10) if spare == 0 or i % 4 != 1], spare


def test_a_failing_child_leaves_its_tasks_to_this_process(monkeypatch):
    parent = os.getpid()
    sent = [0]  # the results a child has computed: each counts in its own copy

    def fail_after(k):
        def square_or_fail(task):
            if in_child(parent):
                if sent[0] == k:
                    raise RuntimeError(f"the child fails after {k} results")
                sent[0] += 1
            return square(task)
        return square_or_fail

    for k, cpus in ((0, 2), (1, 2), (2, 3), (0, 4), (1, 4)):  # before the first result, or after k
        use_cpus(monkeypatch, cpus)
        assert fork_list(fail_after(k), range(11)) == [i * i for i in range(11)], (k, cpus)
        assert_no_children()


def test_a_truncated_result_is_computed_here(monkeypatch):
    parent = os.getpid()
    dump = pickle.dump

    def dump_half_then_fail(obj, file, protocol):
        if obj == 5 * 5:  # the child's second result; its first goes whole
            file.write(pickle.dumps(obj, protocol)[:-1])
            file.flush()
            raise RuntimeError("the pipe ends inside a result")
        dump(obj, file, protocol)

    computed_here = []

    def square_here(task):
        if not in_child(parent):
            computed_here.append(task)
        return square(task)

    monkeypatch.setattr(pickle, "dump", dump_half_then_fail)
    use_cpus(monkeypatch, 4)
    assert fork_list(square_here, range(10)) == [i * i for i in range(10)]
    assert_no_children()
    assert computed_here == [0, 4, 5, 8, 9]  # child 1 sent task 1 only


def test_a_child_that_exits_non_zero_after_sending_everything_is_used(monkeypatch):
    exit_ = os._exit
    parent = os.getpid()
    computed_here = []

    def square_here(task):
        if not in_child(parent):
            computed_here.append(task)
        return square(task)

    monkeypatch.setattr(os, "_exit", lambda status: exit_(3))  # only children call it
    for cpus in (2, 3):
        use_cpus(monkeypatch, cpus)
        computed_here.clear()
        assert fork_list(square_here, range(7)) == [i * i for i in range(7)], cpus
        assert_no_children()
        assert computed_here == list(range(0, 7, cpus)), cpus


def test_the_first_exception_in_task_order_is_raised(monkeypatch):
    # Tasks raise wherever they run; each split must raise the first.
    def square_or_raise(bad):
        def fn(task):
            if task in bad:
                raise ValueError(f"task {task}")
            return square(task)
        return fn

    for bad in ({0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6, 7}, {9}):
        for cpus in CPUS:
            use_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError, match=f"^task {min(bad)}$"):
                fork_list(square_or_raise(bad), range(10))
            assert_no_children()
    # The results before it were yielded.
    use_cpus(monkeypatch, 3)
    got = []
    with pytest.raises(ValueError, match="task 4"), \
            contextlib.closing(fork_map(square_or_raise({4}), range(10))) as results:
        got.extend(results)
    assert got == [0, 1, 4, 9]
    assert_no_children()


def test_children_are_stopped_when_this_process_stops(monkeypatch):
    # The children sleep in their second task; this process raises in its
    # own first task, or closes the iterator after the first child's first
    # result, which arrives while that child still computes.
    parent = os.getpid()

    def slow_in_child(raise_here):
        def fn(task):
            if not in_child(parent):
                if raise_here:
                    raise MemoryError("this process fails")
                return square(task)
            if task >= 4:
                time.sleep(60)
            return square(task)
        return fn

    use_cpus(monkeypatch, 4)
    start = time.monotonic()
    with pytest.raises(MemoryError, match="this process fails"):
        fork_list(slow_in_child(True), range(12))
    assert_no_children()
    assert time.monotonic() - start < 30
    start = time.monotonic()
    with contextlib.closing(fork_map(slow_in_child(False), range(12))) as results:
        assert [next(results), next(results)] == [0, 1]
    assert_no_children()
    assert time.monotonic() - start < 30


def test_an_iterator_closed_before_its_first_result_forks_nothing(monkeypatch):
    forks = count_forks(monkeypatch)
    use_cpus(monkeypatch, 4)
    results = fork_map(square, range(10))
    results.close()
    assert not forks
    assert_no_children()
