import numpy as np
import pytest

from topic_compose.parallel import chunk_spans, map_chunks


class TestChunkSpans:
    def test_uneven_tail(self):
        assert chunk_spans(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_exact_division(self):
        assert chunk_spans(6, 3) == [(0, 3), (3, 6)]

    def test_empty_total(self):
        assert chunk_spans(0, 4) == []

    def test_chunk_larger_than_total(self):
        assert chunk_spans(3, 100) == [(0, 3)]

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            chunk_spans(10, 0)

    def test_spans_partition_the_range(self):
        spans = chunk_spans(1234, 7)
        covered = [i for s, e in spans for i in range(s, e)]
        assert covered == list(range(1234))


class TestMapChunks:
    def _run(self, threads):
        out = np.zeros(100)

        def fill(span):
            s, e = span
            out[s:e] = np.arange(s, e) ** 2

        map_chunks(100, 9, fill, threads)
        return out

    def test_threaded_matches_serial(self):
        serial = self._run(1)
        threaded = self._run(8)
        assert np.array_equal(serial, threaded)
        assert np.array_equal(serial, np.arange(100.0) ** 2)

    def test_single_span_any_threads(self):
        out = []
        map_chunks(5, 512, lambda span: out.append(span), threads=16)
        assert out == [(0, 5)]

    def test_worker_exception_propagates(self):
        def boom(span):
            if span[0] >= 20:
                raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            map_chunks(100, 10, boom, threads=4)

    def test_every_chunk_visited_once(self):
        import threading

        seen = []
        lock = threading.Lock()

        def record(span):
            with lock:
                seen.append(span)

        map_chunks(50, 8, record, threads=3)
        assert sorted(seen) == chunk_spans(50, 8)
