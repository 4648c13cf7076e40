"""Deterministic simulator of a DAG ledger with priority-based tip selection."""
