"""One memory budget for the whole process, kept in one ledger.

Counting sweeps, alias trees and tableau lists all claim their peak
bytes here: a table for as long as it is kept, a sweep while it runs.
A claim that does not fit evicts the least recently used tables of
every builder; one that still does not fit raises ``ValueError``
before anything is allocated.
"""

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, Set, Tuple

#: Peak bytes that kept tables and running sweeps may claim together.
_MEM_BUDGET = 1_500_000_000


class _Ledger:
    """Kept tables by (builder, *key), least recently used first, with
    their charges, and the keys whose builds are under way.  Builds run
    outside the lock; a caller of a key under way waits for it."""

    def __init__(self) -> None:
        self.lock = threading.Condition()
        self.kept: "OrderedDict[tuple, Tuple[object, int]]" = OrderedDict()
        self.building: Set[tuple] = set()
        self.held = 0  # bytes charged to kept tables and to builds under way
        self.reserved = 0  # bytes reserved by running sweeps

    def admit(self, need: int, what: str) -> None:
        """Evict until ``need`` more bytes fit, or raise; under the lock."""
        if need <= _MEM_BUDGET:
            while self.kept and self.held + self.reserved + need > _MEM_BUDGET:
                self.held -= self.kept.popitem(last=False)[1][1]
        if self.held + self.reserved + need > _MEM_BUDGET:
            size = (f"{need / 1e9:.1f} GB" if need >= 1e9 else f"{need / 1e6:.1f} MB"
                    if need >= 1e6 else f"{need / 1e3:.1f} kB")
            raise ValueError(f"{what} would need about {size}; use a smaller size")


_ledger = _Ledger()
# a forked child starts empty: another thread's build or sweep never ends there
os.register_at_fork(after_in_child=lambda: _ledger.__init__())


def get(build: Callable, estimate: Callable[..., int], what: str, *key):
    """The kept ``build(*key)``, built on a miss and charged
    ``estimate(*key)``; ``what.format(*key)`` names it in the error.

    The build runs outside the lock, so sweeps and other keys go on
    meanwhile; its charge is held from before it starts until it is
    kept, or until it raises."""
    ledger, entry = _ledger, (build,) + key
    with ledger.lock:
        ledger.lock.wait_for(lambda: entry not in ledger.building)
        if entry in ledger.kept:
            ledger.kept.move_to_end(entry)
            return ledger.kept[entry][0]
        need = estimate(*key)
        ledger.admit(need, what.format(*key))
        ledger.held += need
        ledger.building.add(entry)
    try:
        table = build(*key)
    except BaseException:
        with ledger.lock:
            ledger.building.discard(entry)
            ledger.held -= need
            ledger.lock.notify_all()
        raise
    with ledger.lock:
        ledger.building.discard(entry)
        ledger.kept[entry] = (table, need)
        ledger.lock.notify_all()
    return table


@contextmanager
def reserve(need: int, what: str) -> Iterator[None]:
    """Hold ``need`` bytes for a running sweep, evicting tables to fit."""
    with _ledger.lock:
        _ledger.admit(need, what)
        _ledger.reserved += need
    try:
        yield
    finally:
        with _ledger.lock:
            _ledger.reserved -= need
