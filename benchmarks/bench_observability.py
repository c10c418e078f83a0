"""Observability overhead: tracing must cost nothing when it is off.

Every hook the tracing layer added to the hot paths — ``FnCtx.log_*``
in the autograd layer, the collective data-plane seam, the trainer span
sites — is a single ``is None`` check when no tracer is installed.
This benchmark enforces that contract: a training loop with tracing
*disabled* must run within 5% of a reference where the hook seams are
stripped back to their pre-observability form, and it reports (without
bounding) what *enabled* tracing costs.

Timing uses best-of-N wall-clock minima interleaved across arms, the
standard noise-robust estimator for a deterministic workload.
"""

from repro.config import ModelConfig
from repro.observability import MetricsRegistry, Tracer, trace_scope
from repro.observability.timing import best_of_interleaved
from repro.parallel.transformer import ParallelGPTModel
from repro.tensor import seed
from repro.tensor.context import ctx
from repro.tensor.oplog import OpRecord
from repro.tensor.tensor import FnCtx
from repro.training.data import UniformTokens
from repro.training.optimizer import Adam
from repro.training.trainer import Trainer

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=2,
                  seq_length=32, vocab_size=64, name="bench-obs")
STEPS = 3
REPEATS = 5
DISABLED_OVERHEAD_BOUND = 0.05


def _loop(tracer=None):
    model = ParallelGPTModel(CFG, tensor_parallel=2, attention_dropout=0.0,
                             hidden_dropout=0.0)
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
    seed(0)
    data = UniformTokens(CFG.vocab_size, CFG.seq_length, seed=1)
    if tracer is None:
        for _ in range(STEPS):
            ids, targets = data.batch(4)
            trainer.train_step(ids, targets, num_microbatches=2)
        return
    with trace_scope(tracer):
        for _ in range(STEPS):
            ids, targets = data.batch(4)
            trainer.train_step(ids, targets, num_microbatches=2)


def _legacy_log_gemm(self, name, flops_per_rank, bytes_moved=0.0):
    # The pre-observability hook body: oplog check only, no tracer seam.
    c = ctx()
    if c.oplog is None:
        return
    from repro.tensor.oplog import OpKind
    c.oplog.add(OpRecord(name=name, kind=OpKind.GEMM, phase=c.phase,
                         flops=flops_per_rank, bytes_moved=bytes_moved))


def _legacy_log_elementwise(self, name, bytes_moved, flops_per_rank=0.0):
    c = ctx()
    if c.oplog is None:
        return
    from repro.tensor.oplog import OpKind
    c.oplog.add(OpRecord(name=name, kind=OpKind.ELEMENTWISE, phase=c.phase,
                         flops=flops_per_rank, bytes_moved=bytes_moved))


def _legacy_log_comm(self, name, op, nbytes, group_size, scope="tp",
                     overlapped=False):
    c = ctx()
    if c.oplog is None:
        return
    from repro.tensor.oplog import CommInfo, OpKind
    c.oplog.add(OpRecord(
        name=name, kind=OpKind.COLLECTIVE if op != "p2p" else OpKind.P2P,
        phase=c.phase,
        comm=CommInfo(op=op, nbytes=int(nbytes), group_size=group_size,
                      scope=scope),
        overlapped=overlapped))


def bench_disabled_overhead(benchmark, monkeypatch):
    """Hooks present but tracing off vs hooks stripped: < 5% apart."""
    # Reference: strip the tracer seams from the autograd logging sites
    # (the hot path — hundreds of calls per step).
    def stripped():
        with monkeypatch.context() as mp:
            mp.setattr(FnCtx, "log_gemm", _legacy_log_gemm)
            mp.setattr(FnCtx, "log_elementwise", _legacy_log_elementwise)
            mp.setattr(FnCtx, "log_comm", _legacy_log_comm)
            _loop()

    stripped()  # warm both code paths before timing
    _loop()
    reference, disabled = best_of_interleaved([stripped, _loop], REPEATS)

    overhead = disabled / reference - 1.0
    print(f"\nreference (no hooks) {reference * 1e3:.1f} ms, "
          f"disabled tracing {disabled * 1e3:.1f} ms, "
          f"overhead {overhead:+.2%} (bound {DISABLED_OVERHEAD_BOUND:.0%})")
    assert overhead < DISABLED_OVERHEAD_BOUND, (
        f"disabled-tracing overhead {overhead:.2%} exceeds "
        f"{DISABLED_OVERHEAD_BOUND:.0%}: a hook site is doing work "
        f"while tracing is off")
    benchmark.pedantic(_loop, rounds=1, iterations=1)


def bench_enabled_cost(benchmark):
    """What full tracing costs, reported for the record (not bounded —
    enabled tracing legitimately prices every op on the cost models)."""
    _loop()
    disabled, enabled = best_of_interleaved(
        [_loop, lambda: _loop(Tracer(metrics=MetricsRegistry()))], REPEATS)
    print(f"\ndisabled {disabled * 1e3:.1f} ms, "
          f"enabled {enabled * 1e3:.1f} ms "
          f"({enabled / disabled:.2f}x)")
    benchmark.pedantic(
        lambda: _loop(Tracer(metrics=MetricsRegistry())),
        rounds=1, iterations=1)
