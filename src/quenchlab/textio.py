"""Plain-text `key = value` files: reports, metadata sidecars and manifests."""
from __future__ import annotations


def write_entries(path: str, entries: dict, mode: str = "w"):
    """Write one `key = value` line per entry; mode "a" appends.

    Values are written as given (str()), so callers fix number formats.
    """
    with open(path, mode) as fh:
        for key, val in entries.items():
            fh.write(f"{key} = {val}\n")
