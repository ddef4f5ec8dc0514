"""Bit order: every reader of measured bitstrings agrees with the string form.

Qubit q is character q of ``index_to_bits`` (site 1 leftmost, the most
significant bit). The references below are built from those strings alone,
so a reader that shifts by q instead of L - 1 - q fails here.
"""
import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sshquench.noise import flip_outcomes
from sshquench.observables import (
    _weighted_occupation_of,
    _weighted_occupation_table,
    postselect_half_filling,
)
from sshquench.randmeas import ShotTable, marginal_counts
from sshquench.state import index_to_bits, pack_bits, qubit_bits


@st.composite
def measured_counts(draw):
    n = draw(st.integers(1, 10))
    keys = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24, unique=True)
    )
    counts = {k: draw(st.integers(1, 5)) for k in keys}
    subset = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return n, counts, subset


@settings(max_examples=80, deadline=None)
@given(measured_counts())
def test_helper_matches_strings(case):
    n, counts, subset = case
    keys = np.array(list(counts), dtype=np.int64)
    strings = [index_to_bits(int(k), n) for k in keys]
    for q, bits in enumerate(qubit_bits(keys, n)):
        assert bits.tolist() == [int(s[q]) for s in strings]
    picked = [int("".join(s[q] for q in subset), 2) for s in strings]
    assert pack_bits(qubit_bits(keys, n, subset)).tolist() == picked
    assert pack_bits(qubit_bits(keys, n)).tolist() == keys.tolist()


@settings(max_examples=80, deadline=None)
@given(measured_counts())
def test_marginal_counts_match_strings(case):
    n, counts, subset = case
    want = np.zeros(1 << len(subset), dtype=np.int64)
    for key, c in counts.items():
        s = index_to_bits(key, n)
        want[int("".join(s[q] for q in subset), 2)] += c
    table = ShotTable(1, n, sum(counts.values()), counts)
    np.testing.assert_array_equal(marginal_counts(table, subset), want)


@settings(max_examples=80, deadline=None)
@given(measured_counts())
def test_weighted_occupation_matches_strings(case):
    n, counts, _subset = case
    keys = np.array(list(counts), dtype=np.int64)
    want = [
        sum(j * int(ch) for j, ch in enumerate(index_to_bits(int(k), n), start=1))
        for k in keys
    ]
    assert _weighted_occupation_of(keys, n).tolist() == want
    assert _weighted_occupation_table(n)[keys].tolist() == want


@settings(max_examples=80, deadline=None)
@given(measured_counts())
def test_postselect_filter_matches_strings(case):
    n, counts, _subset = case
    if n % 2:
        n += 1  # the same keys read as an even register
    want = {k: c for k, c in counts.items() if index_to_bits(k, n).count("1") == n // 2}
    assert postselect_half_filling(counts, n) == want


@settings(max_examples=80, deadline=None)
@given(measured_counts(), st.integers(0, 2**32 - 1), st.floats(0.05, 0.5))
def test_flip_outcomes_replayed_on_strings(case, seed, flip_prob):
    n, counts, _subset = case
    keys = np.array(list(counts), dtype=np.int64)
    rng = np.random.default_rng(seed)
    clone = copy.deepcopy(rng)
    got = flip_outcomes(keys, n, flip_prob, rng)
    flips = clone.random((keys.size, n)) < flip_prob
    want = [
        int("".join(str(int(ch) ^ int(f)) for ch, f in zip(index_to_bits(int(k), n), row)), 2)
        for k, row in zip(keys, flips)
    ]
    assert got.tolist() == want
