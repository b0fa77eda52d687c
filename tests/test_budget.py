"""The process-wide memory ledger: one budget for kept tables and sweeps."""

import gc
import multiprocessing
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from staircase_lab import _budget, asep, dpcount, enumeration, sampler
from staircase_lab.constraints import ConstraintSet, Requirement
from staircase_lab.formulas import partition_closed
from staircase_lab.measure import Weights


def _charges(ledger):
    return sum(charge for _, charge in ledger.kept.values())


def test_kept_tables_and_lists_stay_within_one_budget(monkeypatch, fresh_ledger):
    # tableau lists and alias trees: each fits alone, together they do
    # not; the list at n = 6 and the tree at n = 9 fit side by side, with
    # room for half the tree at n = 8
    budget = (enumeration._list_bytes(6) + sampler._shape_bytes(9)
              + sampler._shape_bytes(8) // 2)
    ledger = fresh_ledger()
    monkeypatch.setattr(_budget, "_MEM_BUDGET", budget)
    tracemalloc.start()
    try:
        enumeration.all_tableaux(5)
        for n in (7, 8):
            sampler.sample_many(n, Weights(n, 1), random.Random(n), 2, "enum_alias")
        enumeration.all_tableaux(6)
        sampler.sample_many(9, Weights(9, 1), random.Random(9), 2, "enum_alias")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= budget
    assert ledger.held == _charges(ledger) <= budget and ledger.reserved == 0
    # the least recently used went first, whoever built them
    assert list(ledger.kept) == [(enumeration._build_list, 6), (sampler._alias_shape, 9)]


def test_sweep_evicts_a_kept_table_rather_than_refusing(monkeypatch, fresh_ledger):
    n, w, statistic = 10, Weights(F(13, 7), F(1000, 3)), "X2"
    expected = dpcount.statistic_pmf(n, w, statistic)
    ledger = fresh_ledger()
    enumeration.all_tableaux(5)
    sampler.sample(8, w, random.Random(0), "enum_alias")
    kept = ledger.held
    # one grouped pass, all the plan's planes at once, and its reservation
    moduli = dpcount._moduli(dpcount.ScaledWeights.of(w).total_bound(n))
    lifts, cap = dpcount._statistic_plan(n, statistic)
    slots = cap + 2
    assert dpcount._groups(moduli, slots, n) == [moduli] and len(moduli) > 1
    sweep = dpcount._sweep_bytes(n, slots, moduli, lifts)
    assert sweep > dpcount._sweep_bytes(n, slots, moduli[:1], lifts)
    assert kept == enumeration._list_bytes(5) + sampler._shape_bytes(8)
    assert ledger.reserved == 0
    # the sweep fits the budget alone, but not beside the kept tables
    monkeypatch.setattr(_budget, "_MEM_BUDGET", sweep + kept // 2)
    assert dpcount.statistic_pmf(n, w, statistic) == expected
    assert not ledger.kept and ledger.held == 0 and ledger.reserved == 0


def test_sweep_past_the_whole_budget_evicts_nothing(monkeypatch, fresh_ledger):
    # one plane, then a plan of three that one grouped pass runs together
    for w, planes in ((Weights(1, 1), 1), (Weights(F(13, 7), F(1000, 3)), 3)):
        ledger = fresh_ledger()
        sampler.sample(6, w, random.Random(0), "enum_alias")
        before = dict(ledger.kept)
        assert before
        moduli = dpcount._moduli(dpcount.ScaledWeights.of(w).total_bound(8))
        assert len(moduli) == planes and dpcount._groups(moduli, 1, 8) == [moduli]
        with monkeypatch.context() as patch:
            patch.setattr(_budget, "_MEM_BUDGET", dpcount._sweep_bytes(8, 1, moduli, {}) - 1)
            with pytest.raises(ValueError, match="kB"):
                dpcount.constrained_partition(8, w)
        assert ledger.kept == before and ledger.reserved == 0


def test_threaded_sweeps_and_samplers_leave_a_balanced_ledger(monkeypatch, fresh_ledger):
    weights = [Weights(1, 1), Weights(F(1, 2), 3), Weights(F(13, 7), F(1000, 3))]
    jobs = [("chain_rule", n, w) for n in (8, 9, 10) for w in weights]
    alias_weights = weights + [Weights(2, 1), Weights(F(2, 7), F(5, 3)), Weights(F(5, 2), 0)]
    jobs += [("enum_alias", n, w) for n, w in zip((7, 8, 9) * 2, alias_weights)]
    jobs += [("list", n, None) for n in (5, 6)]
    jobs += [(statistic, n, w) for statistic in ("X2", "Nalpha") for n in (7, 8)
             for w in weights]
    jobs += [("cell", 8, w) for w in weights]

    def run(k):
        what, n, w = jobs[k]
        if what == "list":
            return enumeration.all_tableaux(n)
        if what in sampler._METHODS:
            return sampler.sample_many(n, w, random.Random(k), 10, what)
        if what == "cell":
            given = ConstraintSet.of(n, {(2, 2): Requirement.MUST_NONEMPTY})
            return dpcount.conditional_cell_law(n, w, (1, 3), given)
        return dpcount.statistic_pmf(n, w, what)

    reserve, reserved = _budget.reserve, []

    def recording(need, what):
        reserved.append(need)
        return reserve(need, what)

    monkeypatch.setattr(_budget, "reserve", recording)
    serial = [run(k) for k in range(len(jobs))]
    workers, sweep = 4, max(reserved)
    other = max(sweep, sampler._shape_bytes(8))
    # room for the list at n = 6 and the tree at n = 9 built at once,
    # beside every other worker's largest hold: a smaller tree, a smaller
    # list or a sweep; chain draws hold nothing; and too little to keep
    # every table: builds evict, none is refused
    budget = enumeration._list_bytes(6) + sampler._shape_bytes(9) + (workers - 2) * other
    kept_all = (sum(map(enumeration._list_bytes, (5, 6)))
                + sum(map(sampler._shape_bytes, (7, 8, 9))))
    assert enumeration._list_bytes(5) <= other and budget < kept_all + sweep
    monkeypatch.setattr(_budget, "_MEM_BUDGET", budget)
    ledger = fresh_ledger()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(run, k) for k in range(len(jobs))]
            threaded = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert ledger.held == _charges(ledger) <= budget
    assert ledger.reserved == 0


def test_failed_build_leaves_the_tally_unchanged(monkeypatch, fresh_ledger):
    ledger = fresh_ledger()
    enumeration.all_tableaux(4)
    before = (dict(ledger.kept), ledger.held)

    def broken(*args):
        raise RuntimeError("enumeration failed")

    monkeypatch.setattr(enumeration, "enumerate_tableaux", broken)
    monkeypatch.setattr(sampler, "_column_configs", broken)
    with pytest.raises(RuntimeError):
        enumeration.all_tableaux(5)
    with pytest.raises(RuntimeError):  # the tree's build fails
        sampler.sample(5, Weights(1, 1), random.Random(0), "enum_alias")
    assert (dict(ledger.kept), ledger.held) == before
    assert len(enumeration.all_tableaux(4)) == 120  # still kept, not rebuilt


def test_forked_child_does_not_wait_on_a_lock_held_by_another_thread(fresh_ledger):
    ledger = fresh_ledger()
    holding, done = threading.Event(), threading.Event()

    def hold():  # as a build in another thread would
        with ledger.lock:
            holding.set()
            done.wait(60)

    thread = threading.Thread(target=hold)
    thread.start()
    assert holding.wait(60)
    try:
        with multiprocessing.get_context("fork").Pool(1) as pool:
            job = pool.apply_async(dpcount.constrained_partition, (4, Weights(1, 1)))
            total = job.get(timeout=30)
    finally:
        done.set()
        thread.join()
    assert total == partition_closed(4, Weights(1, 1))


def test_a_build_under_way_holds_up_only_callers_of_its_key(fresh_ledger):
    ledger = fresh_ledger()
    w = Weights(F(1, 2), 3)
    warm = sampler.sample_many(6, w, random.Random(0), 3, "enum_alias")  # keeps the n = 6 tree
    started, release, done = threading.Event(), threading.Event(), threading.Event()
    builds, results = [], {}

    def held_open(name):
        builds.append(name)
        started.set()
        assert release.wait(60)
        return [name]

    def fetch(k):
        results[k] = _budget.get(held_open, lambda name: 1000, "a table {0}", "key")

    def others():
        results["sweep"] = dpcount.constrained_partition(6, w)
        results["draw"] = sampler.sample_many(6, w, random.Random(0), 3, "enum_alias")
        done.set()

    threads = [threading.Thread(target=fetch, args=(0,))]
    threads[0].start()
    try:
        assert started.wait(60)
        threads += [threading.Thread(target=fetch, args=(1,)),  # the same key: it waits
                    threading.Thread(target=others)]
        for thread in threads[1:]:
            thread.start()
        # a sweep and a warm draw of another key finish while the build is open
        assert done.wait(60)
        assert not release.is_set() and threads[0].is_alive()
        assert (held_open, "key") in ledger.building
        assert ledger.held == sampler._shape_bytes(6) + 1000
    finally:
        release.set()
        for thread in threads:
            thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == ["key"] and results[0] is results[1] == ["key"]
    assert results["sweep"] == partition_closed(6, w) and results["draw"] == warm
    assert not ledger.building and ledger.held == _charges(ledger)
    assert list(ledger.kept)[-1] == (held_open, "key")


def test_a_refusal_under_a_megabyte_names_its_size_in_kilobytes(monkeypatch, fresh_ledger):
    fresh_ledger()
    monkeypatch.setattr(_budget, "_MEM_BUDGET", 1000)
    # a nonzero size, 1.0 to 999.9 kB
    with pytest.raises(ValueError, match=r"would need about [1-9][0-9]{0,2}\.[0-9] kB;"):
        asep.cross_validate(6, asep.AsepParams(2, 1, 3, 1, u=1, q=F(1, 2)))
