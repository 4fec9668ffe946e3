"""Worker-pool helpers.

Work is always split into fixed-size chunks whose boundaries do not depend
on the worker count, so numerical results are identical for any --threads
value; threads only change how chunks are scheduled.
"""

from concurrent.futures import ThreadPoolExecutor

from .model import check_number


def chunk_spans(total, chunk):
    """[(start, end), ...] covering range(total) in chunks of `chunk`."""
    check_number(chunk, "chunk size", 1)
    return [(s, min(s + chunk, total)) for s in range(0, total, chunk)]


def map_chunks(total, chunk, fn, threads):
    """Apply fn((start, end)) to every chunk, possibly from a thread pool.

    fn must write results into preallocated, disjoint slices; chunks carry
    no ordering requirement beyond that.
    """
    spans = chunk_spans(total, chunk)
    if threads <= 1 or len(spans) <= 1:
        for span in spans:
            fn(span)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # consume the iterator so worker exceptions propagate
        for _ in pool.map(fn, spans):
            pass
