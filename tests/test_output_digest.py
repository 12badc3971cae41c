"""The output sweeps of ``output_digest.py`` are unchanged."""

from output_digest import digest, walk_outputs

# Computed with the library before its composition moved onto integer tails;
# a change that keeps every output keeps this value.
PINNED = "1a06be664fa74d72f392fdb135da7dc323fc173db8f4e3f49c55838eebe98a6e"

# Computed with the library while its tree walks still recursed node by node.
WALKS_PINNED = "83d72f308c947d770cfabfb830962a0a27dcbee184fc89f9d64e467c1781d4da"


def test_output_digest_is_pinned():
    assert digest() == PINNED


def test_walk_digest_is_pinned():
    assert digest(walk_outputs()) == WALKS_PINNED
