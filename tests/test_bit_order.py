"""Bit order: every reader of measured bitstrings agrees with the string form.

Qubit q is character q of ``index_to_bits`` (site 1 leftmost, the most
significant bit). The references below are built from those strings alone,
so a reader that shifts by q instead of L - 1 - q fails here.
"""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qubit_bits
from sshquench.noise import flip_outcomes
from sshquench.observables import _bit_sums, postselect_half_filling
from sshquench.randmeas import marginal_counts
from sshquench.state import index_to_bits


@st.composite
def measured_counts(draw):
    n = draw(st.integers(1, 10))
    keys = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24, unique=True)
    )
    counts = {k: draw(st.integers(1, 5)) for k in keys}
    return n, counts


@st.composite
def permuted_subset(draw, num_qubits):
    """Distinct qubits in any listed order, ascending or not."""
    picked = draw(st.sets(st.integers(0, num_qubits - 1), min_size=1))
    return draw(st.permutations(sorted(picked)))


@settings(max_examples=80, deadline=None)
@given(measured_counts())
def test_helper_matches_strings(case):
    n, counts = case
    keys = np.array(list(counts), dtype=np.int64)
    strings = [index_to_bits(int(k), n) for k in keys]
    for q, bits in enumerate(qubit_bits(keys, n)):
        assert bits.tolist() == [int(s[q]) for s in strings]
    packed = sum(bits << (n - 1 - q) for q, bits in enumerate(qubit_bits(keys, n)))
    assert packed.tolist() == keys.tolist()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_marginal_counts_match_strings(data):
    # any listed order: the first listed qubit is the MSB of the marginal index
    n, counts = data.draw(measured_counts())
    subset = data.draw(permuted_subset(n))
    want = np.zeros(1 << len(subset), dtype=np.int64)
    for key, c in counts.items():
        s = index_to_bits(key, n)
        want[int("".join(s[q] for q in subset), 2)] += c
    vec = np.zeros(1 << n, dtype=np.int64)
    vec[list(counts)] = list(counts.values())
    np.testing.assert_array_equal(marginal_counts(vec, subset), want)


@settings(max_examples=80, deadline=None)
@given(measured_counts())
def test_weighted_occupation_matches_strings(case):
    n, counts = case
    keys = np.array(list(counts), dtype=np.int64)
    want = [
        sum(j * int(ch) for j, ch in enumerate(index_to_bits(int(k), n), start=1))
        for k in keys
    ]
    assert _bit_sums(n)[0, keys].tolist() == want
    weights = [index_to_bits(int(k), n).count("1") for k in keys]
    assert _bit_sums(n)[1, keys].tolist() == weights



@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 20])
def test_bit_sums_by_doubling_match_the_bit_construction(n):
    want = np.zeros((2, 1 << n), dtype=np.int16)
    for j, s in enumerate(qubit_bits(np.arange(1 << n), n), start=1):
        want[0] += j * s
        want[1] += s
    got = _bit_sums(n)
    assert got.dtype == np.int16 and not got.flags.writeable
    np.testing.assert_array_equal(got, want)

@settings(max_examples=80, deadline=None)
@given(measured_counts())
def test_postselect_filter_matches_strings(case):
    n, counts = case
    if n % 2:
        n += 1  # the same keys read as an even register
    want = {k: c for k, c in counts.items() if index_to_bits(k, n).count("1") == n // 2}
    assert postselect_half_filling(counts, n) == want


@settings(max_examples=80, deadline=None)
@given(measured_counts(), st.integers(0, 2**32 - 1), st.floats(0.05, 0.5))
def test_flip_outcomes_replayed_on_strings(case, seed, flip_prob):
    # the flipped bits are the cumulative sums of geometric gaps, less one, in
    # the shots' strings read one after another; one long draw replays the
    # chunked ones, since each gap is drawn in turn from the same stream
    n, counts = case
    keys = np.array(list(counts), dtype=np.int64)
    rng = np.random.default_rng(seed)
    clone = copy.deepcopy(rng)
    got = flip_outcomes(keys, n, flip_prob, rng)
    chars = [list(index_to_bits(int(k), n)) for k in keys]
    positions = np.cumsum(clone.geometric(flip_prob, 64 * keys.size * n)) - 1
    for pos in positions[positions < keys.size * n].tolist():
        row, q = divmod(pos, n)
        chars[row][q] = "10"[int(chars[row][q])]
    assert positions[-1] >= keys.size * n
    assert got.tolist() == [int("".join(c), 2) for c in chars]
