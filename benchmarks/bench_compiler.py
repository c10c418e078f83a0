"""Step-compiler replay benchmark: captured-plan replay vs the eager
tape, on the two regimes that bracket it — a deep elementwise chain
(tape-overhead-bound, where replay shines) and a real GPT train step
(numpy-kernel-bound, where replay still wins but modestly).  The gated
floor (2x on the chain) lives in the ``substrate`` bench preset; this
benchmark prints the same ratios for local inspection."""

import numpy as np

from repro.compiler import CaptureRecorder, PlanRuntime, capture_scope
from repro.config import ModelConfig
from repro.layers import GPTModel
from repro.observability.timing import best_of_interleaved
from repro.tensor import Tensor, seed
from repro.tensor import functions as F
from repro.training import Trainer, UniformTokens

CFG = ModelConfig(num_layers=2, hidden_size=64, num_heads=4,
                  seq_length=32, vocab_size=64, name="compiler-bench")


def bench_chain_replay_vs_eager(benchmark):
    rng = np.random.default_rng(0)
    x = Tensor([rng.standard_normal((4, 4))])
    w = Tensor([rng.standard_normal((4, 4))])
    b = Tensor([rng.standard_normal((4, 4))])

    def chain():
        y = x
        for _ in range(200):
            y = F.scale(F.add(F.mul(y, w), b), 0.999)
        return y

    recorder = CaptureRecorder("bench_chain")
    with capture_scope(recorder):
        recorder.bind_input("x", x)
        chain()
    plan = recorder.finalize(runtime=PlanRuntime())

    benchmark.pedantic(plan.replay, rounds=9, iterations=1, warmup_rounds=2)
    eager_s, replay_s = best_of_interleaved([chain, plan.replay], reps=9)
    print(f"\n600-op chain: eager {1e3 * eager_s:.2f} ms, "
          f"replay {1e3 * replay_s:.2f} ms (x{eager_s / replay_s:.2f})")
    assert plan.replays > 0


def bench_train_step_replay_vs_eager(benchmark):
    def twin(compiled):
        seed(0)
        return Trainer(GPTModel(CFG, seed=0), lr=1e-3, compiled=compiled)

    compiled, eager = twin(True), twin(False)
    ids, targets = UniformTokens(CFG.vocab_size, CFG.seq_length,
                                 seed=1).batch(4)
    compiled.train_step(ids, targets)  # capture (one eager-cost step)

    benchmark.pedantic(lambda: compiled.train_step(ids, targets),
                       rounds=5, iterations=1, warmup_rounds=1)
    eager_s, replay_s = best_of_interleaved(
        [lambda: eager.train_step(ids, targets),
         lambda: compiled.train_step(ids, targets)], reps=5)
    print(f"\nGPT train step: eager {1e3 * eager_s:.2f} ms, "
          f"replay {1e3 * replay_s:.2f} ms (x{eager_s / replay_s:.2f})")
    assert compiled.plans.stats()["misses"] == 1
