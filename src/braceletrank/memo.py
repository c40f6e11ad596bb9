"""Bounded memos of integer counts, keyed by a word and its alphabet size.

An entry is a key and one int.  The key is the bytes of the word followed
by k, one byte each, or the exact tuple (w, k) where a symbol or k does not
fit in a byte; a bytes key never equals a tuple key, and its last byte
tells its k, so keys of different words never collide.  A word of length n
over two symbols thus costs n + 1 bytes, not the 8 per symbol of a tuple
of ints.

The entries sit in two plain dicts, the young and the old generation, each
of at most maxsize // 2 entries.  A miss stores its count in the young
one; a hit in the old one moves its entry to the young one.  When the
young one is full it becomes the old one, and the entries of the previous
old one that were not used since are dropped.  So an entry used at least
once per maxsize // 2 stores stays, as in an LRU cache of that size, and
the memo never holds more than maxsize entries.

Threads share a memo.  Lookups take no lock; stores and generation turns
take one, so the bound holds and no entry leaves but by a turn.  Two
threads compute one count when both miss on its key, or when one misses
while the other moves the key to the young generation; the later store
keeps one of two equal counts.  Every stored count is that of its key, so
a lookup returns the right count or misses.  The hit and miss counts are
statistics and may lose an update.
"""

from __future__ import annotations

from functools import _CacheInfo, update_wrapper  # lru_cache's own cache_info() type
from threading import Lock


def word_memo(maxsize: int):
    """Decorator memoising fn(w, k) -> int in at most maxsize entries
    (maxsize >= 2), with functools' cache_info() and cache_clear().  The
    bound is the wrapper's maxsize attribute, read at each store."""

    def decorate(fn):
        young, old, hits, misses, lock = {}, {}, 0, 0, Lock()

        def memoised(w, k):
            nonlocal young, old, hits, misses
            try:
                key = bytes(w + (k,))
            except ValueError:  # a symbol or k above one byte
                key = w, k
            v = young.get(key)
            if v is not None:
                hits += 1
                return v
            v = old.pop(key, None)
            if v is None:
                misses += 1
                v = fn(w, k)
            else:
                hits += 1
            with lock:
                if len(young) >= memoised.maxsize // 2:
                    young, old = {}, young
                young[key] = v
            return v

        def cache_info():
            return _CacheInfo(hits, misses, memoised.maxsize, len(young) + len(old))

        def cache_clear():
            nonlocal young, old, hits, misses
            with lock:
                young, old, hits, misses = {}, {}, 0, 0

        memoised.maxsize, memoised.cache_info, memoised.cache_clear = maxsize, cache_info, cache_clear
        return update_wrapper(memoised, fn)

    return decorate
