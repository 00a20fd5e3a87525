"""The one tracemalloc helper of the tests."""

import tracemalloc


def traced_peak(call):
    """(call(), the peak in bytes that tracemalloc traced during it)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
