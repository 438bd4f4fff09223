"""Folding snapshots into a full reservoir: a long-lived daemon folds one
small snapshot per request, so a fold must touch only the slots the
incoming samples win, and stay deterministic."""

from repro.obs.metrics import RESERVOIR_SIZE, Histogram


def _full(offset=0.0):
    histogram = Histogram()
    for value in range(RESERVOIR_SIZE):
        histogram.add(offset + value)
    return histogram


def _one(value):
    histogram = Histogram()
    histogram.add(value)
    return histogram


class TestReservoirFold:
    def test_single_sample_fold_touches_at_most_one_slot(self):
        histogram = _full()
        for request in range(2000):
            before = list(histogram.samples)
            histogram.merge(_one(-1.0 - request))
            changed = sum(a != b for a, b in zip(before, histogram.samples))
            assert changed <= 1
            assert len(histogram.samples) == RESERVOIR_SIZE
        assert histogram.count == RESERVOIR_SIZE + 2000

    def test_folds_keep_sampling_late_values(self):
        histogram = _full()
        for request in range(4 * RESERVOIR_SIZE):
            histogram.merge(_one(-1.0))
        # algorithm R keeps each of the 2048 late values with chance
        # 512/2560: about 410 of the slots, never none or all of them
        late = sum(value == -1.0 for value in histogram.samples)
        assert 200 < late < RESERVOIR_SIZE - 50

    def test_fold_is_deterministic(self):
        left, right = _full(), _full()
        for request in range(300):
            left.merge(_one(float(request)))
            right.merge(_one(float(request)))
        left.merge(_full(1000.0))
        right.merge(_full(1000.0))
        assert left.samples == right.samples

    def test_share_follows_counts(self):
        small, large = Histogram(), Histogram()
        for value in range(1000):
            small.add(0.0)
        for value in range(20000):
            large.add(1.0)
        small.merge(large)
        # the large side holds 95 % of the observations: it must win
        # most of the reservoir, not the half a count-blind fold gives it
        assert sum(small.samples) > RESERVOIR_SIZE * 0.6
        assert 0.0 in small.samples
