"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` during a call of ``fn``, after a
    first, untraced call has loaded what the call loads only once."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
