"""Soft-state tables with expiry, size bounds, primary keys, and indices."""

from .table import INFINITY, Table, TableStats, TableStore, covers_key

__all__ = ["Table", "TableStats", "TableStore", "INFINITY", "covers_key"]
