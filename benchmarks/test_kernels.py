"""Kernel benchmark suite v3: the engine's fixed rule, measured.

Measures the crypto kernels over a (key_bits, n) grid and writes the
numbers to ``BENCH_kernels.json`` at the repo root:

* the server aggregate ``prod_i c_i^{w_i} mod n^2`` — the naive
  per-element ``pow()`` fold against the
  :func:`~repro.crypto.multiexp.multi_exponent` bucket kernel the
  server and ``PaillierScheme.weighted_product`` fold with;
* vector encryption — a 1-worker engine (serial chunk kernel) against a
  2-worker engine, which fans the same chunks out over its warm pool;
* the encryption obfuscator ``r^n mod n^2`` — full ``pow()`` vs the
  fixed-base windowed table.

The full run uses the paper's 512-bit keys (plus 256-bit) with n in
{200, 1000}.  Set ``REPRO_KERNEL_SMOKE=1`` for the CI smoke variant:
256-bit keys, n=200, and a 1.0x multiexp floor instead of 2.0x.
``params.cpus`` records the CPUs this process may run on; the 2-worker
encryption gate (>= 1.3x over serial at 512-bit, n=1000) applies only
to a full run with at least two of them.  Speedup assertions run
*after* the JSON is written so a regression still leaves the numbers
on disk to inspect.
"""

import json
import math
import os
import time
from pathlib import Path

from repro.crypto.engine import CryptoEngine
from repro.crypto.multiexp import FixedBaseTable, multi_exponent
from repro.crypto.paillier import generate_keypair
from repro.crypto.rng import DeterministicRandom

SMOKE = os.environ.get("REPRO_KERNEL_SMOKE", "") not in ("", "0")
GRID = [(256, 200)] if SMOKE else [(256, 200), (256, 1000), (512, 200), (512, 1000)]
WEIGHT_BITS = 32
ROUNDS = 3  # best-of-3: minimum over rounds rejects scheduler noise
MIN_SPEEDUP = 1.0 if SMOKE else 2.0
WORKERS = 2
CPUS = len(os.sched_getaffinity(0))
#: The encryption fan-out gate: the grid point it applies to, and the
#: floor on serial / 2-worker wall time there.
POOL_GATE_POINT = (512, 1000)
MIN_POOL_SPEEDUP = 1.3

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def best_of(fn, rounds=ROUNDS):
    """Minimum wall-clock seconds of ``fn`` over ``rounds`` runs."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def best_of_interleaved(fn_a, fn_b, rounds=ROUNDS):
    """Best-of for two functions with rounds interleaved A/B/A/B.

    Comparing two separately-taken best-of minima conflates the code
    under test with whatever else the machine was doing during each
    window; interleaving gives both sides the same load profile.
    """
    best_a = best_b = None
    result_a = result_b = None
    for _ in range(rounds):
        start = time.perf_counter()
        result_a = fn_a()
        elapsed = time.perf_counter() - start
        if best_a is None or elapsed < best_a:
            best_a = elapsed
        start = time.perf_counter()
        result_b = fn_b()
        elapsed = time.perf_counter() - start
        if best_b is None or elapsed < best_b:
            best_b = elapsed
    return (best_a, result_a), (best_b, result_b)


def naive_weighted_product(ciphertexts, weights, modulus, n):
    acc = 1
    for ct, w in zip(ciphertexts, weights):
        acc = acc * pow(ct, w % n, modulus) % modulus
    return acc


def bench_weighted(public, ciphertexts, weights):
    """Naive fold vs the multiexp bucket kernel at one point."""
    n, nsquare = public.n, public.nsquare
    (naive_s, expected), (multiexp_s, result) = best_of_interleaved(
        lambda: naive_weighted_product(ciphertexts, weights, nsquare, n),
        lambda: multi_exponent(ciphertexts, [w % n for w in weights], nsquare),
    )
    assert result == expected
    return {
        "naive_s": naive_s,
        "multiexp_s": multiexp_s,
        "speedup_multiexp_vs_naive": naive_s / multiexp_s,
    }


def bench_encrypt(public, size, key_bits):
    """Serial vs 2-worker vector encryption at one grid point."""
    plaintexts = list(range(size))
    seed = "kernel-bench-encrypt-%d-%d" % (key_bits, size)
    # One explicit chunk size for both engines: the ciphertexts are a
    # pure function of (seed, chunk schedule), so byte-equality between
    # them requires the schedule to match.  Two chunks per worker.
    chunk = max(1, -(-size // (2 * WORKERS)))
    with CryptoEngine(workers=1, chunk_size=chunk) as serial, CryptoEngine(
        workers=WORKERS, chunk_size=chunk
    ) as pooled:
        # The first pooled round also spawns the workers; best-of
        # keeps a warm round.
        (serial_s, expected), (parallel_s, result) = best_of_interleaved(
            lambda: serial.encrypt_vector(public, plaintexts, seed),
            lambda: pooled.encrypt_vector(public, plaintexts, seed),
        )
        used_pool = pooled.parallel_batches > 0
    assert result == expected  # byte-identical across worker counts
    return {
        "serial_s": serial_s,
        "parallel_workers2_s": parallel_s,
        "parallel_used_pool": used_pool,
        "speedup_parallel_vs_serial": serial_s / parallel_s,
    }


def test_kernel_benchmarks():
    rng = DeterministicRandom("kernel-bench")
    grid_reports = []
    fb_report = None

    for key_bits, size in GRID:
        keypair = generate_keypair(key_bits, rng)
        public = keypair.public
        n, nsquare = public.n, public.nsquare

        # Random units of Z*_{n^2} stand in for ciphertexts: the kernels
        # only see opaque group elements, and this skips n encryptions.
        ciphertexts = []
        while len(ciphertexts) < size:
            c = rng.randrange(1, nsquare)
            if math.gcd(c, n) == 1:
                ciphertexts.append(c)
        weights = [rng.randrange(0, 1 << WEIGHT_BITS) for _ in range(size)]

        point = {
            "key_bits": key_bits,
            "n": size,
            "weighted": bench_weighted(public, ciphertexts, weights),
            "encrypt": bench_encrypt(public, size, key_bits),
        }
        grid_reports.append(point)
        wp, enc = point["weighted"], point["encrypt"]
        print(
            "\nkernel bench (%d-bit, n=%d): naive=%.3fs multiexp=%.3fs (%.2fx) "
            "encrypt serial=%.3fs 2-worker=%.3fs (%.2fx)"
            % (key_bits, size, wp["naive_s"], wp["multiexp_s"],
               wp["speedup_multiexp_vs_naive"], enc["serial_s"],
               enc["parallel_workers2_s"], enc["speedup_parallel_vs_serial"])
        )

        if fb_report is None:
            # ---- fixed-base obfuscator (one representative point) -----
            fb_count = max(32, size // 8)
            h = rng.randrange(2, n)
            xs = [rng.randrange(1, 1 << public.bits) for _ in range(fb_count)]

            def pow_obfuscators():
                return [pow(pow(h, x, n), n, nsquare) for x in xs]

            pow_s, pow_result = best_of(pow_obfuscators)
            pow_per_op = pow_s / fb_count

            build_start = time.perf_counter()
            table = FixedBaseTable(pow(h, n, nsquare), nsquare, public.bits)
            table_build_s = time.perf_counter() - build_start

            table_s, table_result = best_of(lambda: [table.pow(x) for x in xs])
            table_per_op = table_s / fb_count
            assert table_result == pow_result  # (h^x)^n == (h^n)^x mod n^2

            fb_report = {
                "key_bits": key_bits,
                "ops": fb_count,
                "pow_per_op_s": pow_per_op,
                "table_per_op_s": table_per_op,
                "table_build_s": table_build_s,
                "speedup_table_vs_pow": pow_per_op / table_per_op,
                "build_amortised_after_ops": (
                    table_build_s / max(pow_per_op - table_per_op, 1e-12)
                ),
            }

    report = {
        "suite": "benchmarks/test_kernels.py",
        "version": 3,
        "smoke": SMOKE,
        "params": {
            "grid": [list(point) for point in GRID],
            "weight_bits": WEIGHT_BITS,
            "rounds": ROUNDS,
            "workers": WORKERS,
            "cpus": CPUS,
        },
        "grid": grid_reports,
        "fixed_base_obfuscator": fb_report,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    for point in grid_reports:
        wp, enc = point["weighted"], point["encrypt"]
        label = "(%d-bit, n=%d)" % (point["key_bits"], point["n"])
        assert wp["speedup_multiexp_vs_naive"] >= MIN_SPEEDUP, (
            "multiexp kernel regressed at %s: %.2fx vs required %.1fx (see %s)"
            % (label, wp["speedup_multiexp_vs_naive"], MIN_SPEEDUP, RESULT_PATH)
        )
        assert enc["parallel_used_pool"], (
            "2-worker engine encrypted %s without its pool" % label
        )
        gated = (point["key_bits"], point["n"]) == POOL_GATE_POINT
        if gated and not SMOKE and CPUS >= WORKERS:
            assert enc["speedup_parallel_vs_serial"] >= MIN_POOL_SPEEDUP, (
                "2-worker encryption at %s is only %.2fx serial on %d CPUs "
                "(required %.1fx; see %s)"
                % (label, enc["speedup_parallel_vs_serial"], CPUS,
                   MIN_POOL_SPEEDUP, RESULT_PATH)
            )
    assert fb_report["speedup_table_vs_pow"] >= MIN_SPEEDUP, (
        "fixed-base table regressed: %.2fx vs required %.1fx"
        % (fb_report["speedup_table_vs_pow"], MIN_SPEEDUP)
    )
