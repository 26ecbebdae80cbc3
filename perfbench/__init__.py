"""Layered performance benchmark of the TSV screening stack (see README.md)."""
