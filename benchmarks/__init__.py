"""Benchmark suite: one module per table/figure of the paper."""
