"""Experiment C10: SLP compression quality and cost (paper Section 4's
premise that documents compress well in practice).

Claims benchmarked:

* on repetitive documents, the grammar compressors reach |S| ≪ |D|
  (Re-Pair near-logarithmic on w^k);
* on incompressible (uniform random) documents, |S| = Θ(|D|) — no free
  lunch, as the paper notes for the worst case;
* all builders round-trip exactly, at every size;
* Re-Pair builds in near-linear time: its process CPU time over 4k → 64k
  chars of log text fits an exponent ≤ 1.1 (``repair_exponent``, gated by
  ``tools/check_bench_regression.py``).
"""

import math
import statistics
import time

import pytest

from repro.slp import SLP, balanced_node, fibonacci_node, lz78_node, repair_node
from repro.util import gene_sequence, log_document, random_text, repetitive_text

#: 16x growth of the ingest workload's document type
REPAIR_SIZES = [4096, 16384, 65536]


@pytest.mark.parametrize(
    "name,text",
    [
        ("repetitive", repetitive_text("abcabc", 512)),
        ("gene", gene_sequence(2048, seed=5)),
        ("random", random_text(2048, alphabet="abcd", seed=5)),
    ],
)
def test_c10_repair_compression(bench, name, text):
    def run():
        slp = SLP()
        node = repair_node(slp, text)
        return slp, node

    slp, node = bench(run, rounds=1)
    assert slp.derive(node) == text
    ratio = slp.size(node) / len(text)
    bench.benchmark.extra_info["compression_ratio"] = ratio
    if name == "repetitive":
        assert ratio < 0.05  # near-logarithmic
    if name == "random":
        assert ratio > 0.25  # incompressible stays large


@pytest.mark.parametrize(
    "name,text",
    [
        ("repetitive", repetitive_text("ab", 1024)),
        ("random", random_text(2048, alphabet="ab", seed=9)),
    ],
)
def test_c10_lz78_compression(bench, name, text):
    def run():
        slp = SLP()
        node = lz78_node(slp, text)
        return slp, node

    slp, node = bench(run, rounds=1)
    assert slp.derive(node) == text
    ratio = slp.size(node) / len(text)
    bench.benchmark.extra_info["compression_ratio"] = ratio
    if name == "repetitive":
        assert ratio < 0.2


def test_c10_baseline_balanced_parse(bench):
    text = gene_sequence(4096, seed=1)

    def run():
        slp = SLP()
        return slp, balanced_node(slp, text)

    slp, node = bench(run, rounds=1)
    assert slp.derive(node) == text
    # no compression beyond hash-consing: size stays within |D| but the
    # parse is strongly balanced (the property the editing layer needs)
    assert slp.is_strongly_balanced(node)


def test_c10_fibonacci_slp_is_tiny(bench):
    def run():
        slp = SLP()
        return slp, fibonacci_node(slp, 30)

    slp, node = bench(run)
    assert slp.size(node) <= 60
    assert slp.length(node) == 832040  # fib(30)
    bench.benchmark.extra_info["doc_length"] = slp.length(node)
    bench.benchmark.extra_info["slp_size"] = slp.size(node)


def test_c10_repair_scaling(bench):
    """Re-Pair's build cost grows near-linearly (O(n log n)): the least-
    squares exponent of process CPU time against size stays ≤ 1.1."""
    log = log_document(2500, seed=7)
    assert len(log) >= REPAIR_SIZES[-1]
    cpu = []
    for size in REPAIR_SIZES:
        text = log[:size]
        best = math.inf
        for _ in range(3):
            started = time.process_time()
            repair_node(SLP(), text)
            best = min(best, time.process_time() - started)
        cpu.append(best)
    exponent = statistics.linear_regression(
        [math.log(size) for size in REPAIR_SIZES], [math.log(s) for s in cpu]
    ).slope

    middle = log[: REPAIR_SIZES[1]]

    def run():
        slp = SLP()
        return slp, repair_node(slp, middle)

    slp, node = bench(run, rounds=3)
    assert slp.derive(node) == middle
    bench.record(
        repair_exponent=round(exponent, 3),
        # the compare-mode exponent-drift gate watches this field
        fitted_exponent=round(exponent, 3),
        sizes=f"{REPAIR_SIZES[0]}..{REPAIR_SIZES[-1]}",
        **{f"cpu_seconds_{size}": round(s, 6) for size, s in zip(REPAIR_SIZES, cpu)},
    )
    assert exponent <= 1.1, cpu
