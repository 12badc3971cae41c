"""The output sweeps of ``output_digest.py`` are unchanged."""

from output_digest import digest, upg_outputs, walk_outputs

# Computed with the library before its composition moved onto integer tails;
# a change that keeps every output keeps this value.
PINNED = "1a06be664fa74d72f392fdb135da7dc323fc173db8f4e3f49c55838eebe98a6e"

# Computed with the library while its tree walks still recursed node by node,
# and pinned again when robustness reports gained their per-state ``exact``
# list: with that key dropped the sweep still hashes to the earlier value
# 83d72f308c947d770cfabfb830962a0a27dcbee184fc89f9d64e467c1781d4da.
WALKS_PINNED = "cf677fb8b2b2330499ef984b5d99ae2f2afb8d3bdf8516e9eee7b2cd2a3e1e10"

# Computed with the library while `build_upg` still branched on the
# construction name's suffix and encode, decode and display each carried
# their own bit codec.
UPG_PINNED = "a7468faa5ea4fe06deef897b8e96202dbc6cc95bd62ea4b4969511563fca2e02"


def test_output_digest_is_pinned():
    assert digest() == PINNED


def test_walk_digest_is_pinned():
    assert digest(walk_outputs()) == WALKS_PINNED


def test_upg_digest_is_pinned():
    assert digest(upg_outputs()) == UPG_PINNED
