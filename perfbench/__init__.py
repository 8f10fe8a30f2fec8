"""Benchmark harness for esotn training: workloads, spans, output checks."""
