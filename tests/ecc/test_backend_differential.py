"""Differential harness across codec backends: matrix vs bitsliced.

The batch hot paths carry two interchangeable implementations — the
scalar matrix fold and the pure-python bitsliced lane engine — plus the
polynomial/per-bit reference decoders as the ground-truth oracle.  Every backend must produce *bit-identical*
words, check verdicts, and decode outcomes, including:

* batches whose length is not a multiple of the 64-lane width (tails),
* all-zero and all-ones lanes (degenerate slice values),
* beyond-capacity error patterns (coset-determined miscorrection must be
  the *same* miscorrection everywhere).

Hypothesis profiles are installed by ``tests/conftest.py``: the pinned
``ci`` profile by default, ``REPRO_HYPOTHESIS_PROFILE=nightly`` for the
thorough tier.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.ecc.backend import available_backends, reset_backend, set_backend
from repro.ecc.bch import BchCode
from repro.ecc.hamming import SecDedCode
from repro.ecc.hsiao import HsiaoCode
from repro.errors import UncorrectableError

#: Small data length keeps the polynomial oracle affordable per example.
DATA_BITS = 40

#: Batch backends under differential comparison.
BACKENDS = available_backends()

_bch = BchCode(t=3, data_bits=DATA_BITS)
_bch_ext = BchCode(t=2, data_bits=DATA_BITS, extended=True)
_secded = SecDedCode(DATA_BITS)
_hsiao = HsiaoCode(DATA_BITS)

ALL_CODES = [_bch, _bch_ext, _secded, _hsiao]


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


def _norm(outcome):
    """Decode outcome -> comparable value (results compare by dataclass eq)."""
    if isinstance(outcome, UncorrectableError):
        return ("uncorrectable", type(outcome).__name__, str(outcome))
    return outcome


def _under(name, fn):
    """Run a batch call with one backend selected, then restore."""
    set_backend(name)
    try:
        return fn()
    finally:
        set_backend(None)


def _reference_decode(code, word):
    try:
        return code.decode_reference(word)
    except UncorrectableError as exc:
        return exc


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Lane values biased toward the degenerate slices: all-zero and
#: all-ones data words show up often, surrounding random fill.
_lane_data = st.one_of(
    st.just(0),
    st.just((1 << DATA_BITS) - 1),
    st.integers(min_value=0, max_value=(1 << DATA_BITS) - 1),
)

#: Batch sizes straddling the 64-lane width: tails, exact multiples,
#: and the sub-MIN_SLICED_BATCH scalar fallback all get generated.
_batch = st.lists(_lane_data, min_size=1, max_size=150)


class TestEncodeDifferential:
    """encode_batch agrees across every backend and the polynomial oracle."""

    @given(datas=_batch)
    def test_all_codes_all_backends(self, datas):
        for code in ALL_CODES:
            reference = [code.encode_reference(d) for d in datas]
            for name in BACKENDS:
                got = _under(name, lambda: code.encode_batch(datas))
                assert got == reference, (type(code).__name__, name)


class TestCheckDifferential:
    """check_batch verdicts match scalar ``check`` under every backend."""

    @given(
        datas=_batch,
        flips=st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                       max_size=150),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_mixed_clean_and_dirty_lanes(self, datas, flips, seed):
        rng = random.Random(seed)
        for code in ALL_CODES:
            words = []
            for data, n_flips in zip(datas, flips):
                word = code.encode_reference(data)
                for p in rng.sample(range(code.codeword_bits),
                                    min(n_flips, code.codeword_bits)):
                    word ^= 1 << p
                words.append(word)
            reference = [code.check(w) for w in words]
            for name in BACKENDS:
                got = _under(name, lambda: code.check_batch(words))
                assert got == reference, (type(code).__name__, name)


class TestDecodeDifferential:
    """decode_batch outcomes (incl. beyond-capacity cosets) are identical."""

    @given(
        datas=_batch,
        flips=st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                       max_size=150),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_roundtrip_and_beyond_capacity(self, datas, flips, seed):
        rng = random.Random(seed)
        for code in ALL_CODES:
            words = []
            for data, n_flips in zip(datas, flips):
                word = code.encode_reference(data)
                for p in rng.sample(range(code.codeword_bits),
                                    min(n_flips, code.codeword_bits)):
                    word ^= 1 << p
                words.append(word)
            reference = [_norm(_reference_decode(code, w)) for w in words]
            for name in BACKENDS:
                got = _under(
                    name, lambda: [_norm(r) for r in code.decode_batch(words)]
                )
                assert got == reference, (type(code).__name__, name)


class TestLaneGeometry:
    """Deterministic sweeps over tail sizes and degenerate lane fills."""

    #: 1 lane, just below/at/above MIN_SLICED_BATCH, one word short of a
    #: full slice, exact slices, and non-multiple-of-64 tails.
    SIZES = [1, 15, 16, 63, 64, 65, 127, 128, 130]

    @pytest.mark.parametrize("size", SIZES)
    def test_tail_sizes_roundtrip(self, size):
        rng = random.Random(9000 + size)
        for code in ALL_CODES:
            datas = [rng.getrandbits(DATA_BITS) for _ in range(size)]
            reference = [code.encode_reference(d) for d in datas]
            for name in BACKENDS:
                words = _under(name, lambda: code.encode_batch(datas))
                assert words == reference, (type(code).__name__, name, size)
                decoded = _under(name, lambda: code.decode_batch(words))
                assert [r.data for r in decoded] == datas

    @pytest.mark.parametrize("fill", [0, (1 << DATA_BITS) - 1])
    def test_constant_lanes(self, fill):
        """All-zero / all-ones batches: every slice is 0 or the lane mask."""
        datas = [fill] * 96
        for code in ALL_CODES:
            reference = [code.encode_reference(d) for d in datas]
            for name in BACKENDS:
                words = _under(name, lambda: code.encode_batch(datas))
                assert words == reference, (type(code).__name__, name)
                checks = _under(name, lambda: code.check_batch(words))
                assert checks == [True] * len(words)

    def test_out_of_range_words_agree(self):
        """Negative / oversized stored words never crash the lane engines."""
        rng = random.Random(77)
        for code in ALL_CODES:
            words = [code.encode_reference(rng.getrandbits(DATA_BITS))
                     for _ in range(40)]
            words[3] = -5
            words[17] = 1 << (code.codeword_bits + 9)
            words[39] = -(1 << 200)
            reference = [_norm(_reference_decode(code, w)) if 0 <= w < (
                1 << code.codeword_bits) else None for w in words]
            outcomes = {}
            for name in BACKENDS:
                got = _under(
                    name, lambda: [_norm(r) for r in code.decode_batch(words)]
                )
                checks = _under(name, lambda: code.check_batch(words))
                outcomes[name] = (got, checks)
                for i, want in enumerate(reference):
                    if want is not None:
                        assert got[i] == want, (type(code).__name__, name, i)
            assert len(set(map(repr, outcomes.values()))) == 1, outcomes


class TestCounterAgreement:
    """Backend choice never changes the semantic codec counters."""

    def test_counters_identical_minus_backend_ops(self):
        rng = random.Random(31)
        code = BchCode(t=2, data_bits=DATA_BITS)
        datas = [rng.getrandbits(DATA_BITS) for _ in range(80)]
        words = [code.encode_reference(d) for d in datas]
        for i in range(0, 80, 7):
            words[i] ^= 1 << (i % code.codeword_bits)
        snapshots = {}
        for name in BACKENDS:
            code.counters.reset()
            _under(name, lambda: code.encode_batch(datas))
            _under(name, lambda: code.check_batch(words))
            _under(name, lambda: code.decode_batch(words))
            snap = code.counters.as_dict()
            ops = snap.pop("backend_ops")
            assert set(ops) == {name}, (name, ops)
            snapshots[name] = snap
        first = snapshots[BACKENDS[0]]
        for name, snap in snapshots.items():
            assert snap == first, (name, snap, first)
