"""One memory budget for the whole process, kept in one ledger.

Counting sweeps, chain-rule tables, alias sums and tableau lists all
claim their peak bytes here: a table for as long as it is kept, a
sweep while it runs.  A claim that does not fit evicts the least
recently used tables of every builder; one that still does not fit
raises ``ValueError`` before anything is allocated.
"""

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

#: Peak bytes that kept tables and running sweeps may claim together.
_MEM_BUDGET = 1_500_000_000

#: Tables each builder keeps, the least recently used evicted first.
_CACHE_SIZE = 8


class _Ledger:
    """Kept tables by (builder, *key), least recently used first, with
    their charges.  Builds hold the lock, re-entrant as they nest."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.kept: "OrderedDict[tuple, Tuple[object, int]]" = OrderedDict()
        self.held = 0  # bytes charged to kept tables and to builds under way
        self.reserved = 0  # bytes reserved by running sweeps

    def admit(self, need: int, what: str, build: Optional[Callable] = None) -> None:
        """Evict until ``need`` more bytes fit, or raise; under the lock."""
        if need <= _MEM_BUDGET:
            own = [key for key in self.kept if key[0] is build]
            if len(own) >= _CACHE_SIZE:
                self.held -= self.kept.pop(own[0])[1]
            while self.kept and self.held + self.reserved + need > _MEM_BUDGET:
                self.held -= self.kept.popitem(last=False)[1][1]
        if self.held + self.reserved + need > _MEM_BUDGET:
            raise ValueError(f"{what} would need about {need / 1e9:.1f} GB; "
                             "use a smaller size")


_ledger = _Ledger()
# a forked child starts empty: another thread's build or sweep never ends there
os.register_at_fork(after_in_child=lambda: _ledger.__init__())


def get(build: Callable, estimate: Callable[..., int], what: str, *key):
    """The kept ``build(*key)``, built on a miss and charged
    ``estimate(*key)``; ``what.format(*key)`` names it in the error."""
    ledger, entry = _ledger, (build,) + key
    with ledger.lock:
        if entry not in ledger.kept:
            need = estimate(*key)
            ledger.admit(need, what.format(*key), build)
            ledger.held += need
            try:
                ledger.kept[entry] = (build(*key), need)
            except BaseException:
                ledger.held -= need
                raise
        ledger.kept.move_to_end(entry)
        return ledger.kept[entry][0]


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
