"""Deterministic virtual-process runtime with bulk-synchronous supersteps.

Process bodies are generator functions: they yield communication
requests built through their :class:`ProcessContext` and receive the
result at the next superstep.  Messages posted in one superstep are
visible only in the next; reductions and scans are evaluated in
subdomain-id order, so every public result is independent of how the
processes are scheduled (serial in any order, or on a thread pool).
Every delivered payload is a private copy whose arrays are read-only,
so no process can change what another one sent or received.
"""

from __future__ import annotations

import copy
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class RuntimeProtocolError(RuntimeError):
    """A process violated the superstep communication contract."""


@dataclass
class _Exchange:
    payloads: dict
    routed: bool


@dataclass
class _ReduceAnd:
    flag: bool


@dataclass
class _ScanSum:
    value: object


@dataclass
class _SumOrdered:
    values: np.ndarray


@dataclass
class TraceRecord:
    phase: str
    superstep: int
    kind: str
    src: int
    dst: int
    n_bytes: int


class ProcessContext:
    """Handle given to each virtual process; builds requests to yield."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size

    def neighbor_exchange(self, payloads: dict) -> _Exchange:
        """Post one record per nearest-neighbor target; barrier semantics."""
        return _Exchange(dict(payloads), routed=False)

    def routed_exchange(self, payloads: dict) -> _Exchange:
        """Post records to arbitrary subdomains."""
        return _Exchange(dict(payloads), routed=True)

    def reduce_logical_and(self, flag) -> _ReduceAnd:
        return _ReduceAnd(bool(flag))

    def exclusive_scan_sum(self, value) -> _ScanSum:
        return _ScanSum(value)

    def sum_ordered(self, values) -> _SumOrdered:
        """Global sum of per-process arrays concatenated in rank order.

        All processes contribute once per superstep; the runtime performs
        a single reduction over the concatenated array, so the result is
        bitwise identical to the serial sum of the same values.  A (k, n)
        stack gives k sums in one superstep, row i summed over the
        concatenation of every process's row i.
        """
        return _SumOrdered(np.atleast_1d(np.asarray(values)))


class VirtualRuntime:
    """Schedules virtual processes and transports superstep messages."""

    def __init__(self, n_procs: int, threads: int = 1, trace: bool = False,
                 payload_filter=None, step_order=None):
        if n_procs < 1:
            raise ValueError("need at least one process")
        if threads < 1:
            raise ValueError("need at least one thread")
        if step_order is not None and sorted(step_order) != list(range(n_procs)):
            raise ValueError("step_order must permute 0..n_procs-1")
        self.n_procs = n_procs
        self.threads = threads
        self.trace_enabled = trace
        self.payload_filter = payload_filter
        # ranks in the order they are stepped serially; results must not
        # depend on it
        self.step_order = (list(step_order) if step_order is not None
                           else list(range(n_procs)))
        self.trace: list[TraceRecord] = []
        self._superstep = 0

    def run(self, body, args=None, phase: str = "", neighbor_sets=None):
        """Drive one SPMD program to completion; returns per-rank results.

        Parameters
        ----------
        body : generator function ``body(proc, *args_for_rank)``.
        args : one argument tuple per rank (defaults to no extra arguments).
        phase : label recorded on trace rows.
        neighbor_sets : per-rank sets of neighbor ids; required to
            validate nearest-neighbor exchanges.
        """
        P = self.n_procs
        args = [()] * P if args is None else args
        if len(args) != P:
            raise ValueError(f"{len(args)} argument tuples for {P} processes")
        gens = [body(ProcessContext(s + 1, P), *args[s]) for s in range(P)]
        inbox = [None] * P
        results = [None] * P
        alive = [True] * P

        pool = ThreadPoolExecutor(max_workers=self.threads) if self.threads > 1 else None
        try:
            while any(alive):
                requests: list = [None] * P
                errors: list = []

                def step(i):
                    try:
                        requests[i] = gens[i].send(inbox[i])
                    except StopIteration as stop:
                        results[i] = stop.value
                        alive[i] = False
                    except Exception as exc:  # propagated after the sweep
                        errors.append((i + 1, exc))
                        alive[i] = False

                live = [i for i in self.step_order if alive[i]]
                if pool is not None:
                    list(pool.map(step, live))
                else:
                    for i in live:
                        step(i)
                if errors:
                    self._raise_collected(errors)
                live = [i for i in range(P) if alive[i]]
                if not live:
                    break
                if len(live) != P:
                    done = [i + 1 for i in range(P) if not alive[i]]
                    raise RuntimeProtocolError(
                        f"mismatched participation in superstep "
                        f"{self._superstep}: processes {done} already finished "
                        f"while {[i + 1 for i in live]} are communicating")
                inbox = self._fulfill(requests, phase, neighbor_sets)
                self._superstep += 1
        finally:
            if pool is not None:
                pool.shutdown(wait=False)
        return results

    @staticmethod
    def _raise_collected(errors):
        errors.sort(key=lambda e: e[0])
        first = errors[0][1]
        orphan_lists = [getattr(e, "orphan_ids", None) for _, e in errors]
        if all(o is not None for o in orphan_lists) and len(errors) > 1:
            merged = sorted({k for o in orphan_lists for k in o})
            raise type(first)(merged)
        raise first

    def _fulfill(self, requests, phase, neighbor_sets):
        kinds = {type(r) for r in requests}
        if len(kinds) != 1:
            names = [type(r).__name__ for r in requests]
            raise RuntimeProtocolError(
                f"mixed collective kinds in superstep {self._superstep}: {names}")
        kind = kinds.pop()
        if kind is _ReduceAnd:
            value = all(r.flag for r in requests)
            return [value] * self.n_procs
        if kind is _ScanSum:
            prefix, out = 0, []
            for r in requests:
                out.append(prefix)
                prefix = prefix + r.value
            return out
        if kind is _SumOrdered:
            values = [r.values for r in requests]
            if len({v.shape[:-1] for v in values}) != 1:
                raise RuntimeProtocolError(
                    f"mismatched sum_ordered stacks in superstep "
                    f"{self._superstep}")
            joined = values[0] if len(values) == 1 else \
                np.concatenate(values, axis=-1)
            total = float(np.sum(joined)) if joined.ndim == 1 else \
                tuple(float(np.sum(row)) for row in joined)
            return [total] * self.n_procs
        return self._deliver(requests, phase, neighbor_sets)

    def _deliver(self, requests, phase, neighbor_sets):
        deliveries: list = [dict() for _ in range(self.n_procs)]
        for src0, req in enumerate(requests):
            src = src0 + 1
            for dst in sorted(req.payloads):
                if not 1 <= dst <= self.n_procs:
                    raise RuntimeProtocolError(
                        f"process {src} posted to invalid subdomain {dst}")
                if not req.routed:
                    if neighbor_sets is None:
                        raise RuntimeProtocolError(
                            "neighbor exchange used without declared topology")
                    if dst not in neighbor_sets[src0]:
                        raise RuntimeProtocolError(
                            f"process {src} posted a nearest-neighbor message "
                            f"to non-neighbor {dst}")
                payload = req.payloads[dst]
                if self.payload_filter is not None:
                    payload = self.payload_filter(
                        phase, self._superstep, src, dst, payload)
                if self.trace_enabled:
                    self.trace.append(TraceRecord(
                        phase, self._superstep,
                        "routed" if req.routed else "neighbor",
                        src, dst, len(pickle.dumps(payload, protocol=4))))
                deliveries[dst - 1][src] = _frozen(payload)
        return deliveries


def _frozen(payload):
    """A copy of ``payload`` whose arrays are read-only: every ndarray is
    copied once, walking tuples, lists and dicts; anything else is deep
    copied.  A body that writes into a received array fails, and no
    later write by the sender reaches the receiver."""
    if isinstance(payload, np.ndarray):
        out = payload.copy()
        out.flags.writeable = False
        return out
    if isinstance(payload, (tuple, list)):
        return type(payload)(_frozen(x) for x in payload)
    if isinstance(payload, dict):
        return {k: _frozen(v) for k, v in payload.items()}
    return copy.deepcopy(payload)
