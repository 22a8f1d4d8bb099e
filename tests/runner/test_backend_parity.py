"""Property test: the two store backends are observably identical.

For any random sequence of appends, queries, and compactions, the
JSONL and SQLite backends must return exactly the same answers — the
backend is a persistence choice, never a semantics choice.  This is
the contract that lets ``REPRO_STORE_BACKEND`` swap backends under the
whole test suite and lets ``repro store migrate`` convert histories
without changing any campaign's behavior.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.backends import JsonlBackend, SqliteBackend

#: Small pools so random sequences collide on keys/jobs often.
KEYS = [f"k{i}" for i in range(5)]
JOB_IDS = [f"j{i}" for i in range(3)]
STATUSES = ["ok", "failed", "cached", "skipped"]

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
    st.dictionaries(
        st.sampled_from(["x", "y"]),
        st.integers(min_value=0, max_value=9),
        max_size=2,
    ),
)

append_ops = st.tuples(
    st.just("append"),
    st.sampled_from(KEYS),
    st.sampled_from(JOB_IDS),
    st.sampled_from(STATUSES),
    values,
)
query_ops = st.one_of(
    st.tuples(st.just("get"), st.sampled_from(KEYS)),
    st.tuples(
        st.just("latest"), st.sampled_from(STATUSES + [None])
    ),
    st.tuples(
        st.just("iter_latest"), st.sampled_from(STATUSES + [None])
    ),
    st.just(("keys",)),
    st.just(("len",)),
    st.just(("compact",)),
)
ops_strategy = st.lists(
    st.one_of(append_ops, query_ops), min_size=1, max_size=30
)


def apply(backend, op):
    """Run one operation against a backend; return its observable result."""
    if op[0] == "append":
        _, key, job_id, status, value = op
        backend.append(
            {"key": key, "job_id": job_id, "status": status,
             "value": value}
        )
        return None
    if op[0] == "get":
        return backend.get(op[1])
    if op[0] == "latest":
        return backend.latest_by_key(op[1])
    if op[0] == "iter_latest":
        return list(backend.iter_latest_by_key(op[1]))
    if op[0] == "keys":
        return backend.keys()
    if op[0] == "len":
        return len(backend)
    assert op[0] == "compact"
    return backend.compact()


class TestBackendParity:
    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_random_sequences_agree(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            jsonl = JsonlBackend(f"{tmp}/r.jsonl")
            sqlite = SqliteBackend(f"{tmp}/r.sqlite")
            try:
                for index, op in enumerate(ops):
                    left = apply(jsonl, op)
                    right = apply(sqlite, op)
                    assert left == right, (index, op)
                # After the dust settles the full logs agree too.
                assert jsonl.load() == sqlite.load()
                assert jsonl.latest_by_key(None) == (
                    sqlite.latest_by_key(None)
                )
            finally:
                sqlite.close()

    @given(ops=ops_strategy)
    @settings(max_examples=15, deadline=None)
    def test_parity_survives_reopen(self, ops):
        """Same answers from a fresh handle — nothing lives in memory."""
        with tempfile.TemporaryDirectory() as tmp:
            jsonl = JsonlBackend(f"{tmp}/r.jsonl")
            sqlite = SqliteBackend(f"{tmp}/r.sqlite")
            for op in ops:
                apply(jsonl, op)
                apply(sqlite, op)
            sqlite.close()
            reopened = SqliteBackend(f"{tmp}/r.sqlite")
            try:
                assert JsonlBackend(f"{tmp}/r.jsonl").load() == (
                    reopened.load()
                )
            finally:
                reopened.close()
