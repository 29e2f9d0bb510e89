"""Microbenchmarks of the ECC substrate (real codec throughput).

Not a paper exhibit — these time the software BCH/SEC-DED codecs that
back the fault-injection studies, so regressions in the hot loops
(matrix folds, syndromes, Berlekamp–Massey, Chien search) are visible.

The fast (matrix) path and the reference (polynomial) path are both
timed, and ``test_fast_path_speedup_floor`` asserts the fast path keeps
its >= 5x encode+decode advantage — the quick CI smoke for codec
regressions is::

    PYTHONPATH=src python -m pytest benchmarks/bench_codec_micro.py -q
"""

import random
import time

import pytest

from repro.ecc.backend import available_backends, set_backend
from repro.ecc.bch import BchCode
from repro.ecc.hamming import SecDedCode
from repro.ecc.layout import LineCodec
from repro.types import EccMode

RNG = random.Random(99)

BATCH = 256

#: Deep batch where the lane engines amortize fully (64+ full slices).
BACKEND_BATCH = 4096


@pytest.fixture(scope="module")
def ecc6():
    return BchCode(t=6, data_bits=516)


@pytest.fixture(scope="module")
def secded():
    return SecDedCode(516)


def test_bench_ecc6_encode(benchmark, ecc6):
    data = RNG.getrandbits(516)
    codeword = benchmark(ecc6.encode, data)
    assert ecc6.extract_data(codeword) == data


def test_bench_ecc6_encode_reference(benchmark, ecc6):
    data = RNG.getrandbits(516)
    codeword = benchmark(ecc6.encode_reference, data)
    assert ecc6.extract_data(codeword) == data


def test_bench_ecc6_decode_clean(benchmark, ecc6):
    word = ecc6.encode(RNG.getrandbits(516))
    result = benchmark(ecc6.decode, word)
    assert result.errors_corrected == 0


def test_bench_ecc6_decode_clean_reference(benchmark, ecc6):
    word = ecc6.encode(RNG.getrandbits(516))
    result = benchmark(ecc6.decode_reference, word)
    assert result.errors_corrected == 0


def test_bench_ecc6_decode_six_errors(benchmark, ecc6):
    data = RNG.getrandbits(516)
    word = ecc6.encode(data)
    for p in RNG.sample(range(ecc6.codeword_bits), 6):
        word ^= 1 << p
    result = benchmark(ecc6.decode, word)
    assert result.data == data


def test_bench_ecc6_encode_batch(benchmark, ecc6):
    datas = [RNG.getrandbits(516) for _ in range(BATCH)]
    words = benchmark(ecc6.encode_batch, datas)
    assert len(words) == BATCH


def test_bench_ecc6_decode_batch_clean(benchmark, ecc6):
    words = ecc6.encode_batch([RNG.getrandbits(516) for _ in range(BATCH)])
    results = benchmark(ecc6.decode_batch, words)
    assert all(r.errors_corrected == 0 for r in results)


def test_bench_ecc6_check_batch(benchmark, ecc6):
    words = ecc6.encode_batch([RNG.getrandbits(516) for _ in range(BATCH)])
    oks = benchmark(ecc6.check_batch, words)
    assert all(oks)


def test_bench_secded_roundtrip(benchmark, secded):
    data = RNG.getrandbits(516)

    def roundtrip():
        return secded.decode(secded.encode(data) ^ (1 << 100))

    result = benchmark(roundtrip)
    assert result.data == data


def test_bench_secded_roundtrip_reference(benchmark, secded):
    data = RNG.getrandbits(516)

    def roundtrip():
        return secded.decode_reference(secded.encode_reference(data) ^ (1 << 100))

    result = benchmark(roundtrip)
    assert result.data == data


def test_bench_line_codec_strong(benchmark):
    codec = LineCodec()
    data = RNG.getrandbits(512)

    def roundtrip():
        return codec.decode(codec.encode(data, EccMode.STRONG))

    result = benchmark(roundtrip)
    assert result.data == data


def test_bench_line_codec_batch_strong(benchmark):
    codec = LineCodec()
    datas = [RNG.getrandbits(512) for _ in range(BATCH)]

    def roundtrip():
        return codec.decode_batch(codec.encode_batch(datas, EccMode.STRONG))

    results = benchmark(roundtrip)
    assert all(r.data == d for r, d in zip(results, datas))


@pytest.fixture(params=available_backends())
def batch_backend(request):
    """One concrete backend per parametrization, honoring ``--backend``."""
    name = request.param
    choice = request.config.getoption("--backend")
    if choice not in ("auto", "all") and choice != name:
        pytest.skip(f"--backend={choice} excludes {name}")
    set_backend(name)
    yield name
    set_backend(None if choice in ("auto", "all") else choice)


def test_bench_ecc6_encode_batch_backend(benchmark, ecc6, batch_backend):
    datas = [RNG.getrandbits(516) for _ in range(1024)]
    words = benchmark(ecc6.encode_batch, datas)
    assert len(words) == 1024


def test_bench_ecc6_check_batch_backend(benchmark, ecc6, batch_backend):
    words = ecc6.encode_batch([RNG.getrandbits(516) for _ in range(1024)])
    oks = benchmark(ecc6.check_batch, words)
    assert all(oks)


def test_bench_ecc6_decode_batch_backend(benchmark, ecc6, batch_backend):
    words = ecc6.encode_batch([RNG.getrandbits(516) for _ in range(1024)])
    results = benchmark(ecc6.decode_batch, words)
    assert all(r.errors_corrected == 0 for r in results)


def _throughput(fn, words, repeats=3):
    """Best-of-N wall-clock for one pass over ``words`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for word in words:
            fn(word)
        best = min(best, time.perf_counter() - start)
    return best


def test_fast_path_speedup_floor(ecc6):
    """The matrix fast path must keep >= 5x encode+decode throughput.

    This is the codec-regression smoke (no pytest-benchmark machinery,
    so it also runs under ``-p no:benchmark`` CI configurations).
    """
    rng = random.Random(2024)
    datas = [rng.getrandbits(516) for _ in range(400)]
    words = ecc6.encode_batch(datas)
    encode_fast = _throughput(ecc6.encode, datas)
    encode_ref = _throughput(ecc6.encode_reference, datas)
    decode_fast = _throughput(ecc6.decode, words)
    decode_ref = _throughput(ecc6.decode_reference, words)
    speedup = (encode_ref + decode_ref) / (encode_fast + decode_fast)
    print(
        f"\nencode {encode_ref / encode_fast:.1f}x, "
        f"decode {decode_ref / decode_fast:.1f}x, combined {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"fast path regressed: {speedup:.2f}x < 5x"


#: Timing rounds of the backend floor; each backend keeps its fastest.
BACKEND_ROUNDS = 7


def test_backend_batch_speedup_floor(ecc6, backend_matrix_request):
    """The bitsliced engine must keep >= 5x over the matrix path at 4096
    words.

    Times encode_batch / check_batch / clean decode_batch per backend
    and prints the backend-column table; the floor is asserted on the
    combined (sum of the three passes) bitsliced/matrix ratio, the
    quantity the batched fault-injection and retention sweeps actually
    pay.

    The backends are interleaved: every round times each backend's three
    passes back to back, so a slow spell on a shared host lands on all
    of them, and each pass keeps its fastest (min-of-N) time.
    """
    rng = random.Random(4096)
    datas = [rng.getrandbits(516) for _ in range(BACKEND_BATCH)]
    set_backend("matrix")
    try:
        words = ecc6.encode_batch(datas)
        passes = (
            (ecc6.encode_batch, datas),
            (ecc6.check_batch, words),
            (ecc6.decode_batch, words),
        )
        for name in backend_matrix_request:
            set_backend(name)
            # Warm the engine's compiled maps so lazy table builds
            # (exec-compiled runners) don't pollute the first timing.
            ecc6.check_batch(words)
        best = {name: [float("inf")] * len(passes) for name in backend_matrix_request}
        for _ in range(BACKEND_ROUNDS):
            for name in backend_matrix_request:
                set_backend(name)
                for i, (fn, batch) in enumerate(passes):
                    start = time.perf_counter()
                    fn(batch)
                    best[name][i] = min(best[name][i], time.perf_counter() - start)
        columns = {name: tuple(times) for name, times in best.items()}
    finally:
        set_backend(None)
    print(f"\nECC-6 (t=6, 516 data bits), {BACKEND_BATCH}-word batches:")
    print(f"{'backend':>10} {'encode':>9} {'check':>9} {'decode':>9} {'combined':>9}")
    matrix_total = sum(columns["matrix"]) if "matrix" in columns else None
    for name, (enc, chk, dec) in columns.items():
        total = enc + chk + dec
        rel = f"{matrix_total / total:8.1f}x" if matrix_total else "      n/a"
        print(f"{name:>10} {enc:8.4f}s {chk:8.4f}s {dec:8.4f}s {rel}")
    if matrix_total is None or "bitsliced" not in columns:
        pytest.skip("matrix/bitsliced pair excluded; no floor to assert")
    speedup = matrix_total / sum(columns["bitsliced"])
    assert speedup >= 5.0, (
        f"bitsliced backend regressed: {speedup:.2f}x < 5x over matrix"
    )
