import math

import pytest

from servesim.engine import EngineConfig, iteration_time
from servesim.schedulers import (
    BatchPlan,
    ChunkedPrefill,
    DecodePrepone,
    Phase,
    QueueState,
    RequestState,
    VllmLike,
    next_batch,
    next_batch_chunked,
    next_batch_prepone,
)
from servesim.workload import RequestSpec

ENG = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                   decode_per_seq_s=0.02, max_batch_tokens=512,
                   max_running_seqs=8, kv_capacity_tokens=4096)


def req(rid, prompt, output, arrival=0.0, phase=Phase.WAITING,
        prefill_done=0, emitted=0):
    state = RequestState(RequestSpec(rid, arrival, prompt, output))
    state.phase = phase
    state.prefill_done = prefill_done
    state.emitted = emitted
    return state


def qstate(waiting=(), running=(), kv=0, clock=1.0, engine=ENG):
    return QueueState(clock, list(waiting), list(running), kv, engine)


def test_vllm_prefill_preempts_decode():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    b = req("b", 300, 5, arrival=0.9)
    plan = next_batch(VllmLike(), qstate(waiting=[b], running=[a], kv=150))
    assert plan.decode_ids == ()
    assert [(i.request_id, i.start, i.end) for i in plan.prefill_items] == \
        [("b", 0, 300)]


def test_vllm_pure_decode_when_no_waiting():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    plan = next_batch(VllmLike(), qstate(running=[a], kv=150))
    assert plan.prefill_items == () and plan.decode_ids == ("a",)


def test_vllm_oversized_prompt_stays_waiting():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    b = req("b", 600, 5)  # exceeds max_batch_tokens=512 alone
    plan = next_batch(VllmLike(), qstate(waiting=[b], running=[a], kv=150))
    assert plan.prefill_items == () and plan.decode_ids == ("a",)


def test_vllm_packs_fcfs_prefix_without_overtaking():
    b = req("b", 200, 5, arrival=0.1)
    c = req("c", 400, 5, arrival=0.2)  # 200+400 > 512: stops the pack
    d = req("d", 50, 5, arrival=0.3)   # would fit, but must not overtake c
    plan = next_batch(VllmLike(), qstate(waiting=[b, c, d]))
    assert [i.request_id for i in plan.prefill_items] == ["b"]


def test_vllm_respects_kv_and_seq_limits():
    eng = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                       decode_per_seq_s=0.02, max_batch_tokens=512,
                       max_running_seqs=2, kv_capacity_tokens=500)
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    x = req("x", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    b = req("b", 100, 5)
    plan = next_batch(VllmLike(), qstate(waiting=[b], running=[a, x], kv=300,
                                         engine=eng))
    assert plan.prefill_items == ()  # seq limit reached
    plan = next_batch(VllmLike(), qstate(waiting=[b], running=[a], kv=450,
                                         engine=eng))
    assert plan.prefill_items == ()  # kv would be exceeded (450+105 > 500)
    assert plan.decode_ids == ("a",)


def test_chunked_hybrid_batches():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    b = req("b", 300, 5)
    plan = next_batch_chunked(qstate(waiting=[b], running=[a], kv=150), 100)
    assert plan.decode_ids == ("a",)
    assert [(i.request_id, i.start, i.end) for i in plan.prefill_items] == \
        [("b", 0, 100)]


def test_chunked_continues_partial_prefill_before_admitting():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    b = req("b", 300, 5, phase=Phase.PREFILLING, prefill_done=100)
    c = req("c", 100, 5)
    plan = next_batch_chunked(qstate(waiting=[c], running=[a, b], kv=555), 100)
    assert [(i.request_id, i.start, i.end) for i in plan.prefill_items] == \
        [("b", 100, 200)]


def test_chunked_degenerates_to_single_batch():
    b = req("b", 80, 5)
    plan = next_batch_chunked(qstate(waiting=[b]), 100)
    assert [(i.request_id, i.start, i.end) for i in plan.prefill_items] == \
        [("b", 0, 80)]
    assert plan.decode_ids == ()


def test_chunked_chunk_only_when_no_decoders():
    b = req("b", 300, 5, phase=Phase.PREFILLING, prefill_done=200)
    plan = next_batch_chunked(qstate(running=[b], kv=305), 100)
    assert [(i.request_id, i.start, i.end) for i in plan.prefill_items] == \
        [("b", 200, 300)]


def test_chunked_respects_batch_token_budget():
    eng = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                       decode_per_seq_s=0.02, max_batch_tokens=10,
                       max_running_seqs=8, kv_capacity_tokens=4096)
    decoders = [req(f"d{i}", 10, 50, phase=Phase.DECODING, prefill_done=10,
                    emitted=5) for i in range(8)]
    b = req("b", 300, 5)
    plan = next_batch_chunked(qstate(waiting=[b], running=decoders[:7],
                                     kv=420, engine=eng), 100)
    # 7 decode slots leave 3 batch tokens for the chunk.
    assert plan.prefill_items[0].end == 3


def test_prepone_phase_sequence():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    b = req("b", 300, 5, arrival=0.9)
    state = qstate(waiting=[b], running=[a], kv=150)

    first = next_batch_prepone(state, 2, None)
    assert first.decode_ids == ("a",) and first.prefill_items == ()
    assert state.prepone is not None and state.prepone.remaining == 1
    # Release cap is the projected end of b's prefill: two decode iterations
    # (0.01 + 0.02 each) then the 300-token prefill (0.01 + 0.3).
    expected_cap = 1.0 + 2 * 0.03 + 0.31
    assert state.prepone.release_cap == pytest.approx(expected_cap, abs=1e-12)
    # The k-th batch (the clock stays at 1.0 here) ends at 1.03 and is
    # released k automatic delays of prefill / (n + 1) later, below the cap.
    end = 1.0 + iteration_time(0, 1, ENG)
    delay = iteration_time(300, 0, ENG) / 3
    assert first.release_s == end + 1 * delay
    assert first.release_s == pytest.approx(1.03 + 0.31 / 3, abs=1e-12)

    second = next_batch_prepone(state, 2, None)
    assert second.decode_ids == ("a",) and second.release_s == end + 2 * delay
    assert second.release_s == pytest.approx(1.03 + 2 * 0.31 / 3, abs=1e-12)
    assert state.prepone.remaining == 0

    third = next_batch_prepone(state, 2, None)
    assert [(i.request_id, i.start, i.end) for i in third.prefill_items] == \
        [("b", 0, 300)]
    assert third.release_s is None
    assert state.prepone is None


def test_prepone_release_is_capped_at_the_prefill_end():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    b = req("b", 300, 5)
    state = qstate(waiting=[b], running=[a], kv=150)
    plan = next_batch_prepone(state, 2, 10.0)
    assert plan.release_s == state.prepone.release_cap


def test_prepone_zero_delay_releases_at_generation():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=5)
    b = req("b", 300, 5)
    state = qstate(waiting=[b], running=[a], kv=150)
    plan = next_batch_prepone(state, 2, 0.0)
    assert plan.release_s == 1.0 + iteration_time(0, 1, ENG)  # the batch end


def test_prepone_clamps_to_remaining_output():
    a = req("a", 100, 50, phase=Phase.DECODING, prefill_done=100, emitted=49)
    b = req("b", 300, 5)
    state = qstate(waiting=[b], running=[a], kv=150)
    plan = next_batch_prepone(state, 3, None)
    assert plan.release_s is not None
    assert state.prepone.remaining == 0  # only one token left to prepone


def test_prepone_without_decoders_prefills_immediately():
    b = req("b", 300, 5)
    state = qstate(waiting=[b])
    plan = next_batch_prepone(state, 2, None)
    assert plan.prefill_items and state.prepone is None


def test_next_batch_dispatch():
    b = req("b", 10, 5)
    assert next_batch(VllmLike(), qstate(waiting=[b])).prefill_items
    assert next_batch(ChunkedPrefill(4), qstate(waiting=[b])).prefill_items
    assert next_batch(DecodePrepone(2), qstate(waiting=[b])).prefill_items


def test_policy_validation():
    with pytest.raises(ValueError):
        ChunkedPrefill(0)
    with pytest.raises(ValueError):
        DecodePrepone(0)
    for t_delay in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_delay must be non-negative "
                                             "and finite"):
            DecodePrepone(1, t_delay)


def test_batch_plan_accounting():
    plan = BatchPlan(prefill_items=(), decode_ids=("a", "b"))
    assert plan.decode_seqs == 2 and plan.prefill_tokens == 0
    assert not plan.is_empty
    assert BatchPlan().is_empty
    assert BatchPlan().release_s is None
