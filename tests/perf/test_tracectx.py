"""Tests for trace identity: traceparent wire format, span-id minting,
and the thread-local ambient context stack."""

from __future__ import annotations

import os
import pickle
import re
import threading

import pytest

from repro.perf import tracectx
from repro.perf.tracectx import (
    TraceContext,
    current_trace,
    mint_trace,
    new_span_id,
    pop_trace,
    push_trace,
    trace_scope,
)


class TestSpanIds:
    def test_shape_and_uniqueness(self):
        ids = {new_span_id() for _ in range(1000)}
        assert len(ids) == 1000
        for sid in ids:
            assert len(sid) == 16
            int(sid, 16)  # all hex

    def test_pid_in_high_half(self):
        sid = new_span_id()
        assert sid[:8] == f"{os.getpid() & 0xFFFFFFFF:08x}"


class TestTraceContext:
    def test_mint_shapes(self):
        ctx = TraceContext.mint()
        assert len(ctx.trace_id) == 32
        int(ctx.trace_id, 16)
        assert len(ctx.span_id) == 16

    def test_mint_is_random(self):
        assert TraceContext.mint().trace_id != TraceContext.mint().trace_id

    def test_child_keeps_trace_changes_span(self):
        parent = TraceContext.mint()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id

    def test_immutable_and_a_value(self):
        ctx = TraceContext.mint()
        with pytest.raises(AttributeError):
            ctx.trace_id = "0" * 32
        same = TraceContext(ctx.trace_id, ctx.span_id)
        assert same == ctx and hash(same) == hash(ctx)
        assert {ctx: 1}[same] == 1
        assert ctx.child() != ctx
        assert type(ctx.child()) is TraceContext
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_traceparent_roundtrip(self):
        ctx = TraceContext.mint()
        header = ctx.to_traceparent()
        assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        parsed = TraceContext.from_traceparent(header)
        assert parsed == ctx

    def test_parse_tolerates_whitespace_and_case(self):
        ctx = TraceContext.mint()
        header = "  " + ctx.to_traceparent().upper() + " \n"
        assert TraceContext.from_traceparent(header) == ctx

    @pytest.mark.parametrize("bad", [
        "",
        "garbage",
        "00-zz-aa-01",
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",   # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",   # short span id
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",   # invalid zero trace
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # invalid zero span
        "00-" + "a" * 32 + "-" + "b" * 16,            # missing flags
    ])
    def test_parse_rejects_malformed(self, bad):
        assert TraceContext.from_traceparent(bad) is None

    def test_dict_roundtrip(self):
        ctx = mint_trace()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    @pytest.mark.parametrize("junk", [
        None, "x", 7, [], {}, {"trace_id": "a"}, {"span_id": "b"},
        {"trace_id": "", "span_id": ""},
    ])
    def test_from_dict_tolerates_junk(self, junk):
        assert TraceContext.from_dict(junk) is None


class TestIdsAcrossFork:
    """Ids come from an in-process generator, renewed in each forked
    child: a child never replays its parent's sequence."""

    COUNT = 64

    @staticmethod
    def _in_child(mint) -> list:
        """Run *mint* in a forked child; its result, one id a line."""
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                os.write(write_end, "\n".join(mint()).encode("ascii"))
            finally:
                os._exit(0)
        os.close(write_end)
        chunks = []
        while True:
            chunk = os.read(read_end, 65536)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        return b"".join(chunks).decode("ascii").splitlines()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_never_repeats_the_parents_next_ids(self):
        child = self._in_child(lambda: [TraceContext.mint().trace_id
                                        for _ in range(self.COUNT)])
        parent = [TraceContext.mint().trace_id for _ in range(self.COUNT)]
        assert len(child) == self.COUNT
        assert not set(child) & set(parent)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_span_ids_carry_the_childs_pid(self):
        pid_hex, *span_ids = self._in_child(lambda: [
            f"{os.getpid() & 0xFFFFFFFF:08x}",
            *(new_span_id() for _ in range(self.COUNT))])
        assert pid_hex != f"{os.getpid() & 0xFFFFFFFF:08x}"
        assert {sid[:8] for sid in span_ids} == {pid_hex}

    def test_trace_ids_are_lower_hex_and_never_all_zero(self, monkeypatch):
        ids = [TraceContext.mint().trace_id for _ in range(1000)]
        assert all(re.fullmatch(r"[0-9a-f]{32}", tid) for tid in ids)
        draws = iter([0, 0, 0xABC])
        monkeypatch.setattr(tracectx._IDS, "getrandbits",
                            lambda bits: next(draws))
        assert TraceContext.mint().trace_id == f"{0xABC:032x}"


class TestAmbientStack:
    def test_empty_by_default(self):
        assert current_trace() is None

    def test_scope_installs_and_restores(self):
        outer = TraceContext.mint()
        inner = outer.child()
        with trace_scope(outer):
            assert current_trace() == outer
            with trace_scope(inner):
                assert current_trace() == inner
            assert current_trace() == outer
        assert current_trace() is None

    def test_scope_pops_on_exception(self):
        ctx = TraceContext.mint()
        with pytest.raises(RuntimeError):
            with trace_scope(ctx):
                raise RuntimeError("boom")
        assert current_trace() is None

    def test_push_pop_pairing(self):
        ctx = TraceContext.mint()
        push_trace(ctx)
        assert current_trace() == ctx
        pop_trace()
        assert current_trace() is None
        pop_trace()  # unbalanced pop on an empty stack must not raise
        assert current_trace() is None

    def test_threads_have_independent_stacks(self):
        ctx = TraceContext.mint()
        seen = {}

        def _other():
            seen["before"] = current_trace()
            with trace_scope(TraceContext.mint()):
                seen["inside"] = current_trace()

        with trace_scope(ctx):
            t = threading.Thread(target=_other)
            t.start()
            t.join()
            assert current_trace() == ctx
        assert seen["before"] is None
        assert seen["inside"] is not None
        assert seen["inside"].trace_id != ctx.trace_id
