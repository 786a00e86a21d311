"""Benchmark harness for the hspr engine; see README.md in this directory."""
