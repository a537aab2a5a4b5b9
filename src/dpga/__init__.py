"""Deterministic simulator for delayed partial gradient averaging."""

__version__ = "0.1.0"
