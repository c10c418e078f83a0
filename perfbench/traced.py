"""The traced run: per-layer metrics for one workload.

Units alternate untraced / traced in one process.  Traced units run with
the :class:`~tracing.LayerTracer` wrappers and the collective observer
installed; every ``_ms`` metric is self time per traced unit (span
duration minus nested spans), except ``checkpoint.recompute_ms``, which
is inclusive.  Counters are per unit.

Health checks, each counted as a failure when it does not hold:

* the wrapper-counted collective calls and bytes equal what the program's
  own ``install_trace_hook`` observer saw on the same units;
* the self times of all spans never exceed the traced wall time
  (``trace.coverage_error`` is the share of traced wall time outside any
  layer span: the benchmark's own loop and uncovered glue);
* ``trace.overhead_share`` is not negative: it is the median, over each
  traced unit and the untraced unit just before it, of the traced unit's
  extra time as a share of the untraced one's.  A negative median fails
  the run unless it is within the pairs' resolution: when the wrappers
  cost less than the host's unit-to-unit noise (``train_cp4_ring`` runs
  few, large ops), the median can read slightly below zero, so the
  failure needs the traced units to win their pairs more often than a
  sign test allows by chance.
"""

from __future__ import annotations

import math
import statistics
import sys

from tracing import COMM_KINDS, CollectiveObserver, build_layer_tracer
from workloads import make_workload, run_unit

#: kinds reported one by one (broadcast is counted in the comm totals only)
REPORTED_KINDS = ("all_reduce", "all_gather", "reduce_scatter", "all_to_all")
#: a negative overhead fails the run when its sign test is this unlikely
#: under "tracing costs nothing"
NEGATIVE_OVERHEAD_P = 0.01


def sign_test(faster: int, pairs: int) -> float:
    """One-sided sign-test p-value: the chance that at least ``faster``
    of ``pairs`` traced units beat their untraced neighbour if tracing
    cost nothing (each pair a fair coin)."""
    return sum(math.comb(pairs, k)
               for k in range(faster, pairs + 1)) / 2 ** pairs


def traced_run(args):
    from repro.fusion import default_arena

    workload = make_workload(args.workload, args.seed)
    workload.warmup()
    tracer = build_layer_tracer()
    observer = CollectiveObserver()
    with tracer.installed():            # first traced call of every wrapper
        run_unit(workload, -1)
    tracer.reset()

    arena = default_arena()
    hits0, misses0 = arena.hits, arena.misses
    state0 = workload.layer_state()
    workload.start_window()
    traced, untraced = [], []
    measured = 0.0
    while measured < args.seconds or len(traced) < 2:
        i = len(traced) + len(untraced)
        if i % 2:
            with tracer.installed(), observer.installed():
                traced.append(run_unit(workload, i))
            measured += traced[-1]
        else:
            untraced.append(run_unit(workload, i))
            measured += untraced[-1]
    units = len(traced) + len(untraced)
    state1 = workload.layer_state()
    hits, misses = arena.hits - hits0, arena.misses - misses0
    failed = workload.verify()

    n = len(traced)
    wall = sum(traced)
    self_s, total_s, calls, counts = (tracer.self_s, tracer.total_s,
                                      tracer.calls, tracer.counts)

    def ms(seconds):
        return seconds * 1e3 / n, "ms"

    def per_unit(count, unit="count"):
        return count / n, unit

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    comm_calls = sum(calls.get(f"comm.{k}", 0) for k in COMM_KINDS)
    comm_bytes = sum(counts.get(f"comm.{k}.bytes", 0) for k in COMM_KINDS)
    if (comm_calls, comm_bytes) != (observer.calls, observer.bytes):
        print(f"trace check: wrappers saw {comm_calls} collectives / "
              f"{comm_bytes} B, the trace hook saw {observer.calls} / "
              f"{observer.bytes} B", file=sys.stderr)
        failed += 1
    covered = sum(self_s.values())
    coverage_error = 1.0 - covered / wall
    if coverage_error < 0:
        print(f"trace check: span self times {covered:.6f}s exceed the "
              f"traced wall time {wall:.6f}s", file=sys.stderr)
        failed += 1
    # Adjacent units share the host's state, so each traced unit is
    # compared with the untraced unit just before it.
    ratios = [(t - u) / u for u, t in zip(untraced, traced)]
    overhead = statistics.median(ratios)
    p_faster = sign_test(sum(r < 0 for r in ratios), len(ratios))
    if overhead < 0 and p_faster < NEGATIVE_OVERHEAD_P:
        print(f"trace check: traced units ran faster than untraced ones "
              f"(overhead {overhead:.4f}, sign test p={p_faster:.2g})",
              file=sys.stderr)
        failed += 1

    decode_calls = calls["serving.decode"]
    decode_tokens = counts["serving.decode_tokens"]
    run_tokens = decode_tokens + counts["serving.prefill_tokens"]
    metrics = {
        "training.forward_ms": ms(self_s["training.forward"]),
        "training.backward_ms": ms(self_s["training.backward"]),
        "training.optimizer_ms": ms(self_s["training.optimizer"]),
        "training.data_ms": ms(self_s["training.data"]),
        "tensor.apply_calls": per_unit(calls["tensor.apply"]),
        "tensor.apply_ms": ms(self_s["tensor.apply"]),
        "tensor.backward_ms": ms(self_s["tensor.backward"]),
        "tensor.save_calls": per_unit(counts["tensor.save"]),
        "tensor.release_calls": per_unit(counts["tensor.release"]),
        "checkpoint.calls": per_unit(calls["checkpoint.forward"]),
        "checkpoint.recompute_ms": ms(total_s["checkpoint.recompute"]),
        "checkpoint.recompute_share": ratio(total_s["checkpoint.recompute"],
                                           wall),
        "fusion.calls": per_unit(calls["fusion.forward"]),
        "fusion.ms": ms(tracer.sum_self("fusion")),
        "fusion.arena_hit_ratio": ratio(hits, hits + misses),
        "layers.embedding_ms": ms(self_s["layers.embedding"]),
        "layers.transformer_ms": ms(self_s["layers.transformer"]),
        "layers.head_ms": ms(self_s["layers.head"]),
        "parallel.mapping_calls": per_unit(calls["parallel.mapping"]),
        "parallel.mapping_ms": ms(self_s["parallel.mapping"]),
        "comm.calls": per_unit(comm_calls),
        "comm.bytes": per_unit(comm_bytes, "bytes"),
        "comm.ms": ms(tracer.sum_self("comm")),
    }
    for kind in REPORTED_KINDS:
        metrics[f"comm.{kind}.calls"] = per_unit(calls[f"comm.{kind}"])
        metrics[f"comm.{kind}.bytes"] = per_unit(counts[f"comm.{kind}.bytes"],
                                                 "bytes")
    metrics.update({
        "comm.p2p.calls": per_unit(counts["comm.p2p.hops"]),
        "comm.p2p.bytes": per_unit(counts["comm.p2p.bytes"], "bytes"),
        "longctx.attention_calls": per_unit(calls["longctx.attention"]),
        "longctx.attention_ms": ms(self_s["longctx.attention"]),
        "pipeline.sim_bubble_share": (workload.bubble_share(), "ratio"),
        "serving.prefill_calls": per_unit(calls["serving.prefill"]),
        "serving.prefill_ms": ms(self_s["serving.prefill"]),
        "serving.decode_calls": per_unit(decode_calls),
        "serving.decode_ms": ms(self_s["serving.decode"]),
        "serving.decode_batch_mean": (decode_tokens / decode_calls
                                      if decode_calls else 0.0, "count"),
        # scheduler counters move in untraced units too: per unit of both
        "serving.preemptions": ((state1["preemptions"]
                                 - state0["preemptions"]) / units, "count"),
        "serving.resumes": ((state1["resumes"] - state0["resumes"]) / units,
                            "count"),
        "serving.swap_ms": ms(self_s["serving.swap"]),
        "serving.admission_refusals": per_unit(
            counts["serving.admission_refusals"]),
        "serving.pricing_ms": ms(self_s["serving.pricing"]),
        "serving.useful_token_ratio": ratio(decode_tokens, run_tokens),
        "kv_cache.write_ms": ms(self_s["kv_cache.write"]),
        "kv_cache.gather_calls": per_unit(calls["kv_cache.gather"]),
        "kv_cache.gather_ms": ms(self_s["kv_cache.gather"]),
        "kv_cache.peak_occupancy": (state1["peak_occupancy"], "ratio"),
        "allocator.alloc_calls": per_unit(calls["allocator.alloc"]),
        "allocator.free_calls": per_unit(calls["allocator.free"]),
        "allocator.ms": ms(tracer.sum_self("allocator")),
        "allocator.fragmentation": (state1["fragmentation"], "ratio"),
        "trace.overhead_share": (overhead, "ratio"),
        "trace.coverage_error": (coverage_error, "ratio"),
    })
    context = {"workload": args.workload, "seed": args.seed,
               "traced_units": n, "untraced_units": len(untraced),
               "collectives_seen_by_hook": observer.calls,
               "untraced_step_ms_p50": statistics.median(untraced) * 1e3,
               "traced_step_ms_p50": statistics.median(traced) * 1e3,
               "overhead_pairs_faster": sum(r < 0 for r in ratios),
               "overhead_sign_test_p": p_faster}
    return context, units + workload.attempted_extra, failed, metrics
