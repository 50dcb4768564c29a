"""The planted-cluster generator: where the signal goes and which arguments it refuses."""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # 2 columns hold only 2^2 = 4 distinct sign patterns
    ((30, 10, 5, 2), "k=5 distinct cluster centres need n_informative >= m=3 columns, "
                     "got n_informative=2"),
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


@settings(max_examples=300)
@given(st.integers(2, 8), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_centres_differ_on_every_column_and_pairwise(k, n_informative, seed):
    m = (k - 1).bit_length()      # k distinct sign patterns need m columns
    if n_informative < m:
        with pytest.raises(InputError, match=f"k={k} .* m={m} "):
            planted_clusters(k, 40, k, n_informative, seed=seed)
        return
    data, informative = planted_clusters(k, 40, k, n_informative, within_std=0.0, seed=seed)
    # n = k balanced labels: one sample per cluster, sitting at its centre
    centres = data.matrix[np.argsort(data.labels)][:, informative]
    assert np.array_equal(np.abs(centres), np.full((k, n_informative), SEPARATION))
    assert np.all(centres.min(axis=0) < centres.max(axis=0))
    assert len(np.unique(centres, axis=0)) == k
    if k == 2:
        assert np.array_equal(centres[1], -centres[0])


@pytest.mark.parametrize("args", [(30, 100, 3, 40), (165, 12626, 4, 200),
                                  (165, 12626, 4, 1000)])
def test_shapes_whose_random_centres_rarely_differ_on_every_column_return_at_once(args):
    t0 = time.perf_counter()
    data, informative = planted_clusters(*args)
    assert time.perf_counter() - t0 < 0.5
    assert data.matrix.shape == args[:2] and len(informative) == args[3]


def test_two_clusters_keep_the_bytes_of_their_first_draw():
    # the k = 2 numbers cited elsewhere (median d^2 121 here) rest on these bytes
    data, informative = planted_clusters(100, 60, 2, 10)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in
                                     (data.matrix, data.labels, informative))).hexdigest()
    assert digest == "db681b6a357d2752ede855a0c12efcd454f9c60708203366ae767de7a3bd620b"
