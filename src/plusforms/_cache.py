"""Monotone precision cache for expensive series builders.

A builder keyed by name is recomputed only when a caller wants more
precision than any previous call; shorter requests are served by
truncation.  Series are immutable, so sharing is safe.  At most
MAX_ENTRIES keys are kept; past that the least recently used one is
evicted, and a later request for it rebuilds it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .qseries import QSeries

MAX_ENTRIES = 64

_lock = threading.Lock()
_store: OrderedDict = OrderedDict()


def series_at(key, precision: int, builder) -> QSeries:
    """Return builder(P) truncated to `precision`, reusing any cached build
    of the same key at precision >= the request."""
    with _lock:
        cached = _store.get(key)
        if cached is not None:
            _store.move_to_end(key)
    if cached is None or cached.precision < precision:
        cached = builder(precision)
        if cached.precision < precision:
            raise ValueError("builder for %r returned precision %d < %d"
                             % (key, cached.precision, precision))
        with _lock:
            prev = _store.get(key)
            if prev is None or prev.precision < cached.precision:
                _store[key] = cached
            else:
                cached = prev
            _store.move_to_end(key)
            if len(_store) > MAX_ENTRIES:
                _store.popitem(last=False)
    return cached.truncate(precision)


def clear() -> None:
    with _lock:
        _store.clear()
