"""Cooperative query deadline (the reference's isActive()/
OSHDBTimeoutException analog, Kernels.java:24-36)."""

import numpy as np
import pytest


def test_deadline_trips_running_view():
    """A view launched with an already-tiny deadline must die with the
    typed error (propagated by Ray from the worker task), and the same
    view with a generous deadline must complete normally."""
    import ray.exceptions

    from rayhist.functions.deadline import Deadline, RayhistTimeoutError
    from rayhist import io as rio
    from rayhist.ingest import read_documents
    from rayhist.views import snapshot_stage

    from rayhist.model import DECODE_COLUMNS

    docs = read_documents("/root/testdata/sf0.001", columns=DECODE_COLUMNS)
    T = [int(np.datetime64("2024-01-15", "us").astype(np.int64))]

    ok = rio.map_blocks(docs, snapshot_stage(T, None, deadline=Deadline(3600.0))).to_pandas()
    assert len(ok) > 0

    dead = Deadline(-1.0)  # already expired
    with pytest.raises((RayhistTimeoutError, ray.exceptions.RayTaskError)) as ei:
        rio.map_blocks(docs, snapshot_stage(T, None, deadline=dead))
    assert "deadline exceeded" in str(ei.value)


def test_deadline_object_semantics():
    from rayhist.functions.deadline import Deadline, RayhistTimeoutError

    d = Deadline(1000.0)
    assert not d.expired()
    d.check()  # no raise
    d2 = Deadline(-0.001)
    assert d2.expired()
    with pytest.raises(RayhistTimeoutError):
        d2.check()
