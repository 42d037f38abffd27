"""Simulation primitive tests: queues, double buffers, ports."""

import pytest

from repro.sim import (
    BoundedQueue,
    DoubleBuffer,
    Port,
    QueueEmptyError,
    QueueFullError,
)


class TestBoundedQueue:
    def test_fifo_order(self):
        q = BoundedQueue(4)
        for i in range(3):
            q.push(i)
        assert [q.pop() for _ in range(3)] == [0, 1, 2]

    def test_full_raises(self):
        q = BoundedQueue(1)
        q.push("a")
        with pytest.raises(QueueFullError):
            q.push("b")
        assert q.rejected_pushes == 1

    def test_try_push(self):
        q = BoundedQueue(1)
        assert q.try_push(1)
        assert not q.try_push(2)

    def test_empty_pop_raises(self):
        with pytest.raises(QueueEmptyError):
            BoundedQueue(1).pop()

    def test_peek_does_not_remove(self):
        q = BoundedQueue(2)
        q.push("x")
        assert q.peek() == "x"
        assert len(q) == 1

    def test_drain(self):
        q = BoundedQueue(4)
        for i in range(4):
            q.push(i)
        assert q.drain() == [0, 1, 2, 3]
        assert q.is_empty

    def test_occupancy_stats(self):
        q = BoundedQueue(4)
        for i in range(3):
            q.push(i)
        q.pop()
        assert q.max_occupancy == 3
        assert q.total_pushes == 3
        assert q.total_pops == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)


class TestDoubleBuffer:
    def test_push_until_full(self):
        buf = DoubleBuffer(2)
        assert buf.push(1)
        assert buf.push(2)
        assert not buf.push(3)  # front full -> caller must swap

    def test_swap_and_drain(self):
        buf = DoubleBuffer(2)
        buf.push(1)
        buf.push(2)
        buf.swap()
        assert buf.drain_back() == [1, 2]
        assert buf.push(3)  # front is the old (now empty) back

    def test_swap_pressure_counted(self):
        buf = DoubleBuffer(2)
        buf.push(1)
        buf.swap()
        buf.swap()  # back still holds item 1
        assert buf.swaps_while_back_nonempty == 1


class TestPort:
    def test_width_one_serializes(self):
        port = Port(1)
        done = port.request(cycle=0, items=3)
        assert done == 3

    def test_vector_width(self):
        port = Port(8)
        assert port.request(0, 8) == 1
        assert port.request(1, 9) == 3  # two more cycles

    def test_backpressure_from_earlier_request(self):
        port = Port(1)
        port.request(0, 5)
        assert port.request(2, 1) == 6  # waits for the first batch

    def test_zero_items(self):
        port = Port(4)
        assert port.request(7, 0) == 7

    def test_utilization(self):
        port = Port(1)
        port.request(0, 5)
        assert port.utilization(10) == pytest.approx(0.5)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Port(0)

