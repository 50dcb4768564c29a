"""The planted-cluster generator: where the signal goes and which arguments it refuses."""

import time

import numpy as np
import pytest

from kpcaig import InputError
from kpcaig.synthetic import SEPARATION, planted_clusters


def test_the_signal_sits_at_the_returned_positions():
    data, informative = planted_clusters(200, 50, 4, 6, within_std=0.05, seed=3)
    assert len(set(informative.tolist())) == 6 and informative.max() < 50
    # seeded, not the lowest indices, which every ranking prefers on a tie
    assert sorted(informative.tolist()) != list(range(6))
    X, labels = data.matrix, data.labels
    means = np.stack([X[labels == c].mean(axis=0) for c in range(4)])
    noise = np.setdiff1d(np.arange(50), informative)
    assert np.abs(np.abs(means[:, informative]) - SEPARATION).max() < 0.1
    assert np.abs(means[:, noise]).max() < 0.5 * SEPARATION
    again, same = planted_clusters(200, 50, 4, 6, within_std=0.05, seed=3)
    assert np.array_equal(again.matrix, X) and np.array_equal(same, informative)


@pytest.mark.parametrize("args, message", [
    ((30, 10, 1, 4), "planted clusters need k >= 2, got k=1"),
    # no 3 sign patterns of length 2 pairwise differ in both coordinates
    ((30, 10, 3, 2), "found no k=3 cluster centres that differ on each of n_informative=2 "
                     "columns and pairwise on 2 of them"),
    ((30, 10, 2, 11), "n_informative=11 exceeds p=10"),
])
def test_arguments_that_admit_no_clusters_raise_at_once(args, message):
    t0 = time.perf_counter()
    with pytest.raises(InputError) as info:
        planted_clusters(*args)
    assert time.perf_counter() - t0 < 1.0
    assert str(info.value) == message


def test_two_clusters_take_opposite_centres_on_every_column():
    # the only two sign patterns that differ on all 30 columns are s and -s
    t0 = time.perf_counter()
    data, informative = planted_clusters(10, 40, 2, 30)
    assert time.perf_counter() - t0 < 1.0
    X, labels = data.matrix[:, informative], data.labels
    means = np.stack([X[labels == c].mean(axis=0) for c in range(2)])
    assert np.all(np.sign(means[0]) == -np.sign(means[1]))
