"""Compound-document constants shared by ingest and the member engine
(``rayhist.members_vec``).

Way/relation documents carry denormalized child histories
(FIXTURES.md §1); their member-history semantics mirror the
reference's ``OSHEntities._getModificationTimestamps`` (:330-478) and
``OSHDBGeometryBuilder`` (:72-110). The per-document reference engine
that the vectorized one is checked against lives in
``tests/reference_members.py``.
"""

from __future__ import annotations

# map_batches batch_size for compound-document stages, and the shard
# size of the compound tables (one stage call per row group). 128
# documents keep the per-batch fixed cost amortized while a corpus
# still yields >=2x-cpus batches; whole-corpus batches hit the
# first-touch page-fault wall of large fresh allocations (BASELINE.md).
COMPOUND_BATCH = 128

# BaseTagInterpreter analogs (BaseTagInterpreter.java:100-136):
# uninterestingTagKeys and the relation-area tag values that do NOT
# disqualify a relation from being an old-style multipolygon.
UNINTERESTING_TAG_KEYS = {"created_by", "source"}
RELATION_AREA_TAGS = {("type", "multipolygon"), ("type", "boundary")}
