"""The output sweep of ``output_digest.py`` is unchanged."""

from output_digest import digest

# Computed with the library before its composition moved onto integer tails;
# a change that keeps every output keeps this value.
PINNED = "1a06be664fa74d72f392fdb135da7dc323fc173db8f4e3f49c55838eebe98a6e"


def test_output_digest_is_pinned():
    assert digest() == PINNED
