import copy

import numpy as np
import pytest

import agfem.runtime
from agfem.experiments import ExperimentConfig, run_solve_pipeline
from agfem.runtime import RuntimeProtocolError, VirtualRuntime


def test_single_process_exchange_is_noop():
    rt = VirtualRuntime(1)

    def body(proc):
        received = yield proc.neighbor_exchange({})
        return received

    assert rt.run(body, neighbor_sets=[set()]) == [{}]


def test_two_processes_swap_records():
    rt = VirtualRuntime(2)

    def body(proc):
        other = 3 - proc.rank
        received = yield proc.neighbor_exchange({other: f"from {proc.rank}"})
        return received

    results = rt.run(body, neighbor_sets=[{2}, {1}])
    assert results[0] == {2: "from 2"}
    assert results[1] == {1: "from 1"}


def test_asymmetric_post():
    rt = VirtualRuntime(2)

    def body(proc):
        payload = {2: "ping"} if proc.rank == 1 else {}
        received = yield proc.neighbor_exchange(payload)
        return received

    results = rt.run(body, neighbor_sets=[{2}, {1}])
    assert results[0] == {}
    assert results[1] == {1: "ping"}


def test_messages_visible_next_superstep_only():
    rt = VirtualRuntime(2)

    def body(proc):
        other = 3 - proc.rank
        first = yield proc.routed_exchange({other: "a"})
        second = yield proc.routed_exchange({})
        return (first, second)

    results = rt.run(body)
    # the message posted in step 0 arrives with step 0's receipts, nothing later
    assert results[0] == ({2: "a"}, {})


def test_non_neighbor_post_rejected():
    rt = VirtualRuntime(3)

    def body(proc):
        payload = {3: "x"} if proc.rank == 1 else {}
        yield proc.neighbor_exchange(payload)

    with pytest.raises(RuntimeProtocolError, match="non-neighbor"):
        rt.run(body, neighbor_sets=[{2}, {1, 3}, {2}])


def test_routed_exchange_reaches_anyone():
    rt = VirtualRuntime(3)

    def body(proc):
        payload = {3: np.arange(3)} if proc.rank == 1 else {}
        received = yield proc.routed_exchange(payload)
        return received

    results = rt.run(body)
    assert np.array_equal(results[2][1], np.arange(3))


def test_payloads_are_isolated():
    # the receiver gets a read-only copy: a write into it fails loudly and
    # cannot leak back, and the sender's later write does not reach it
    data = np.array([1.0, 2.0])

    def body(proc, write):
        if proc.rank == 1:
            yield proc.routed_exchange({2: data})
            data[1] = -1.0
            yield proc.routed_exchange({})
            return None
        received = yield proc.routed_exchange({})
        yield proc.routed_exchange({})
        if write:
            received[1][0] = 99.0
        return received[1]

    got = VirtualRuntime(2).run(body, args=[(False,)] * 2)[1]
    assert np.array_equal(got, [1.0, 2.0])
    with pytest.raises(ValueError, match="read-only"):
        VirtualRuntime(2).run(body, args=[(True,)] * 2)
    assert data[0] == 1.0  # receiver mutation cannot leak back


def test_nested_payload_arrays_are_read_only():
    rt = VirtualRuntime(2)
    payload = (np.arange(3), [np.ones(2), (4, "x")], {"k": np.zeros(1)})

    def body(proc):
        posts = {2: payload} if proc.rank == 1 else {}
        received = yield proc.routed_exchange(posts)
        return received

    got = rt.run(body)[1][1]
    arrays = [got[0], got[1][0], got[2]["k"]]
    assert got[1][1] == (4, "x") and type(got[1]) is list
    for a, want in zip(arrays, [payload[0], payload[1][0], payload[2]["k"]]):
        assert np.array_equal(a, want) and a is not want
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    assert all(a.flags.writeable for a in (payload[0], payload[1][0]))


def test_reductions():
    rt = VirtualRuntime(3)

    def body(proc, flag):
        result = yield proc.reduce_logical_and(flag)
        return result

    assert rt.run(body, args=[(True,), (True,), (True,)]) == [True] * 3
    assert rt.run(body, args=[(True,), (False,), (True,)]) == [False] * 3


def test_exclusive_scan():
    rt = VirtualRuntime(3)

    def body(proc, value):
        prefix = yield proc.exclusive_scan_sum(value)
        return prefix

    assert rt.run(body, args=[(3,), (5,), (2,)]) == [0, 3, 8]


def test_sum_ordered_matches_serial_sum():
    rng = np.random.default_rng(3)
    chunks = [rng.standard_normal(17), rng.standard_normal(5),
              rng.standard_normal(31)]
    serial = float(np.sum(np.concatenate(chunks)))
    rt = VirtualRuntime(3)

    def body(proc, chunk):
        total = yield proc.sum_ordered(chunk)
        return total

    results = rt.run(body, args=[(c,) for c in chunks])
    assert all(r == serial for r in results)


def test_stacked_sum_ordered_sums_each_row_as_one_reduction():
    rng = np.random.default_rng(4)
    stacks = [rng.standard_normal((2, n)) for n in (17, 5, 31)]
    serial = tuple(float(np.sum(np.concatenate([s[i] for s in stacks])))
                   for i in range(2))
    rt = VirtualRuntime(3)

    def body(proc, stack):
        sums = yield proc.sum_ordered(stack)
        return sums

    before = rt._superstep
    assert rt.run(body, args=[(s,) for s in stacks]) == [serial] * 3
    assert rt._superstep == before + 1

    def mismatched(proc):
        yield proc.sum_ordered(np.ones((proc.rank, 4)))

    with pytest.raises(RuntimeProtocolError, match="mismatched sum_ordered"):
        VirtualRuntime(2).run(mismatched)


def test_mismatched_participation_detected():
    rt = VirtualRuntime(2)

    def body(proc):
        if proc.rank == 1:
            yield proc.reduce_logical_and(True)
        return None

    with pytest.raises(RuntimeProtocolError, match="mismatched participation"):
        rt.run(body)


def test_mixed_collectives_detected():
    rt = VirtualRuntime(2)

    def body(proc):
        if proc.rank == 1:
            yield proc.reduce_logical_and(True)
        else:
            yield proc.exclusive_scan_sum(1)

    with pytest.raises(RuntimeProtocolError, match="mixed"):
        rt.run(body)


def _pipeline_program(proc, seed):
    rng = np.random.default_rng(seed + proc.rank)
    value = float(rng.random())
    other = proc.rank % proc.size + 1
    received = yield proc.routed_exchange({other: value})
    total = yield proc.sum_ordered(np.array([value]))
    prefix = yield proc.exclusive_scan_sum(proc.rank)
    return (sorted(received.items()), total, prefix)


def test_scheduling_independence():
    baseline = VirtualRuntime(4).run(_pipeline_program, args=[(11,)] * 4)
    for order in ([3, 2, 1, 0], [1, 3, 0, 2], reversed(range(4))):
        assert VirtualRuntime(4, step_order=order).run(
            _pipeline_program, args=[(11,)] * 4) == baseline


def test_trace_records_traffic():
    rt = VirtualRuntime(2, trace=True)

    def body(proc):
        other = 3 - proc.rank
        yield proc.neighbor_exchange({other: b"xy"})
        yield proc.routed_exchange({})
        return None

    rt.run(body, phase="demo", neighbor_sets=[{2}, {1}])
    kinds = {(t.kind, t.src, t.dst) for t in rt.trace}
    assert kinds == {("neighbor", 1, 2), ("neighbor", 2, 1)}
    assert all(t.phase == "demo" and t.n_bytes > 0 for t in rt.trace)


def test_read_only_delivery_keeps_the_distributed_trace(monkeypatch):
    # circle L7 on 32 subdomains at an offset centre: supersteps,
    # messages, bytes and the solution equal those of deep-copy delivery
    cfg = ExperimentConfig(level=7, procs=32, center=(0.531, 0.472),
                           solution="sine").validate()

    def run():
        rt = VirtualRuntime(cfg.procs, trace=True)
        out = run_solve_pipeline(cfg, runtime=rt)
        return rt, out

    rt, out = run()
    monkeypatch.setattr(agfem.runtime, "_frozen", copy.deepcopy)
    rt_ref, out_ref = run()
    assert rt._superstep == rt_ref._superstep
    assert len(rt.trace) == len(rt_ref.trace) > 0
    assert rt.trace == rt_ref.trace
    assert out.report.iterations == out_ref.report.iterations
    assert np.array_equal(out.solution, out_ref.solution)


def test_run_needs_one_argument_tuple_per_process():
    # a tuple without a process must not be dropped: four blocks on two
    # processes would give a four-entry solution, "converged" at once
    import scipy.sparse as sp

    from agfem.assembly import DistributedSystem
    from agfem.solve import pcg_jacobi

    def body(proc, value):
        return value
        yield

    rt = VirtualRuntime(2)
    assert rt.run(body, args=[(1,), (2,)]) == [1, 2]
    for args in ([(1,)], [(1,), (2,), (3,)]):
        with pytest.raises(ValueError, match=f"^{len(args)} argument tuples "
                                             f"for 2 processes$"):
            rt.run(body, args=args)
    A = sp.csr_matrix(sp.diags(np.arange(1.0, 9.0)))
    starts = np.array([1, 3, 5, 7, 9])
    split = DistributedSystem(
        n_global=8, row_starts=starts,
        blocks=[A[i - 1:j - 1] for i, j in zip(starts[:-1], starts[1:])],
        rhs=[np.ones(2)] * 4, staged_counts=[0] * 4)
    with pytest.raises(ValueError, match="^4 argument tuples for 2 processes$"):
        pcg_jacobi(split, runtime=VirtualRuntime(2))
