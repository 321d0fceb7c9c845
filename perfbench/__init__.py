"""Benchmark of the masslin document functions; entry point perfbench/run.py."""
