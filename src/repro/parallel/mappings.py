"""The conjugate communication operators of Figures 4-6.

Tensor parallelism (Figure 4):

* ``f``  — identity in forward, **all-reduce in backward**;
* ``f̄``  — **all-reduce in forward**, identity in backward.

Tensor + sequence parallelism (Figure 5):

* ``g``  — **all-gather (sequence dim) in forward, reduce-scatter in
  backward**;
* ``ḡ``  — **reduce-scatter in forward, all-gather in backward**.

Plus the sequence-region entry point used by the embedding (a local
scatter whose backward is an all-gather), and the fused
all-gather-matmul that implements the paper's "we store only the Y_i^s
part on the i-th tensor parallel rank and perform an extra all-gather in
the backward pass" optimization.

Every operator logs a :class:`~repro.tensor.oplog.CommInfo` so the cost
model can price the communication; ``overlapped=True`` marks collectives
the paper overlaps with compute (the backward weight-gradient GEMM).
"""

from __future__ import annotations

import numpy as np

from ..comm import collectives
from ..comm.process_group import ProcessGroup
from ..errors import CommError
from ..tensor import backend as bk
from ..tensor.tensor import FnCtx, Function, ShardList, Tensor, apply


def _full_bytes(shards: ShardList, width: int, multiplier: int = 1) -> int:
    return bk.size_of(shards[0]) * width * multiplier


class CopyToTensorParallelRegion(Function):
    """``f``: identity forward, all-reduce backward (Figure 4).

    The backward all-reduce is marked ``overlapped`` — Megatron overlaps
    it with the preceding linear's weight-gradient GEMM, which the paper
    credits for full-recompute overhead being 39% rather than 33%.
    """

    name = "f"

    def __init__(self, group: ProcessGroup):
        self.group = group

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        return list(x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("f.bwd", "all_reduce", _full_bytes(grad, width),
                      self.group.size, scope=self.group.scope, overlapped=True)
        return (collectives.all_reduce(grad),)


class ReduceFromTensorParallelRegion(Function):
    """``f̄``: all-reduce forward (sums partial outputs), identity backward."""

    name = "f_bar"

    def __init__(self, group: ProcessGroup):
        self.group = group

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("f_bar", "all_reduce", _full_bytes(x, width),
                      self.group.size, scope=self.group.scope)
        return collectives.all_reduce(x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        return (list(grad),)


class GatherFromSequenceParallelRegion(Function):
    """``g``: all-gather along the sequence dim forward, reduce-scatter
    backward (Figure 5)."""

    name = "g"

    def __init__(self, group: ProcessGroup, axis: int = 0):
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("g", "all_gather",
                      _full_bytes(x, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        return collectives.all_gather(x, self.axis)

    def backward(self, fctx: FnCtx, grad: ShardList):
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("g.bwd", "reduce_scatter", bk.size_of(grad[0]) * width,
                      self.group.size, scope=self.group.scope)
        return (collectives.reduce_scatter(grad, self.axis),)


class ScatterToSequenceParallelRegion(Function):
    """``ḡ``: reduce-scatter forward (sums partials and shards the
    sequence dim), all-gather backward (Figure 5)."""

    name = "g_bar"

    def __init__(self, group: ProcessGroup, axis: int = 0):
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("g_bar", "reduce_scatter", _full_bytes(x, width),
                      self.group.size, scope=self.group.scope)
        return collectives.reduce_scatter(x, self.axis)

    def backward(self, fctx: FnCtx, grad: ShardList):
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("g_bar.bwd", "all_gather",
                      _full_bytes(grad, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        return (collectives.all_gather(grad, self.axis),)


class ScatterSplitSequence(Function):
    """Enter the sequence-parallel region from replicated data.

    Forward is a local slice (rank ``i`` keeps chunk ``i`` of the sequence
    dim — no communication, the data is already resident everywhere);
    backward all-gathers the gradient chunks back to the replicated layout.
    Used after the embedding lookup (Section 4.3).
    """

    name = "scatter_seq"

    def __init__(self, group: ProcessGroup, axis: int = 0):
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        world = len(x)
        shape = bk.shape_of(x[0])
        if shape[self.axis] % world != 0:
            raise CommError(
                f"axis {self.axis} ({shape[self.axis]}) not divisible by world {world}"
            )
        chunk = shape[self.axis] // world
        return [
            bk.slice_axis(x[r], self.axis, r * chunk, (r + 1) * chunk)
            for r in range(world)
        ]

    def backward(self, fctx: FnCtx, grad: ShardList):
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("scatter_seq.bwd", "all_gather",
                      _full_bytes(grad, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        return (collectives.all_gather(grad, self.axis),)


class GatherWithSliceBackward(Function):
    """All-gather whose backward is a local slice (no communication).

    Appropriate when the downstream gradient is *replicated* across the
    group (the consumer region contains ``f``, whose backward all-reduce
    makes every rank's gradient identical), so each rank can simply take
    its own chunk instead of reduce-scattering.  Used by the sharded-
    checkpoint variant of full recomputation: the paper's "store a portion
    of activations in each tensor parallel rank ... requires an extra
    all-gather per layer" (Section 5) — the all-gather is this operator's
    forward, re-run during recomputation.
    """

    name = "gather_slice"

    def __init__(self, group: ProcessGroup, axis: int = 0):
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        width = fctx.inputs[0].dtype.nbytes
        fctx.misc["chunk"] = bk.shape_of(x[0])[self.axis]
        fctx.log_comm("gather_slice", "all_gather",
                      _full_bytes(x, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        return collectives.all_gather(x, self.axis)

    def backward(self, fctx: FnCtx, grad: ShardList):
        chunk = fctx.misc["chunk"]
        return ([
            bk.slice_axis(g, self.axis, r * chunk, (r + 1) * chunk)
            for r, g in enumerate(grad)
        ],)


class AllGatherMatmul(Function):
    """Fused ``g`` + column-parallel matmul with shard-only saving.

    Forward: all-gather the sequence-sharded input ``[Y_1^s..Y_t^s]`` into
    the full ``Y`` and compute ``Y @ W_i`` per rank.  **Only the local
    shard ``Y_i^s`` is saved** (``2sbh/t`` per rank instead of ``2sbh``),
    implementing the paper's Section 4.2.2 optimization.  Backward
    re-all-gathers ``Y`` (marked ``overlapped`` — the paper hides it under
    the dY GEMM), computes the two gradient GEMMs, and reduce-scatters dY
    back to sequence shards (``g``'s backward).
    """

    name = "ag_matmul"

    def __init__(self, group: ProcessGroup, axis: int = 0,
                 category: str = "sp_linear_input"):
        self.group = group
        self.axis = axis
        self.category = category

    def forward(self, fctx: FnCtx, x: ShardList, w: ShardList) -> ShardList:
        self.group.check_world(len(x))
        fctx.misc["x_slot"] = fctx.save_input(0, category=self.category)
        fctx.misc["w_slot"] = fctx.save_input(1)
        width = fctx.inputs[0].dtype.nbytes
        full = collectives.all_gather(x, self.axis)
        fctx.log_comm("ag_matmul", "all_gather",
                      _full_bytes(x, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        out = [bk.linear(fi, wi) for fi, wi in zip(full, w)]
        k = bk.shape_of(full[0])[-1]
        flops = 2.0 * bk.size_of(out[0]) * k
        fctx.misc["flops"] = flops
        fctx.misc["shapes"] = (bk.shape_of(x[0]), bk.shape_of(w[0]))
        fctx.log_gemm(f"ag_matmul[{self.category}]", flops_per_rank=flops)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        w = fctx.saved(fctx.misc["w_slot"])
        x_shape, w_shape = fctx.misc["shapes"]
        width = fctx.inputs[0].dtype.nbytes
        # Extra all-gather of the saved shards (the cost of storing Y_i^s
        # only); overlapped with the dY GEMM per the paper.
        fctx.log_comm("ag_matmul.bwd_regather", "all_gather",
                      _full_bytes(x, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope, overlapped=True)
        full = collectives.all_gather(x, self.axis)
        flops = fctx.misc["flops"]
        fctx.log_gemm(f"ag_matmul[{self.category}].dgrad", flops_per_rank=flops)
        fctx.log_gemm(f"ag_matmul[{self.category}].wgrad", flops_per_rank=flops)
        k, n = w_shape
        dw = []
        dfull = []
        for g, fi, wi in zip(grad, full, w):
            if bk.is_abstract(g) or bk.is_abstract(fi):
                dw.append(bk.AbstractArray(w_shape))
                dfull.append(bk.AbstractArray(bk.shape_of(fi)))
            else:
                dw.append(np.reshape(fi, (-1, k)).T @ np.reshape(g, (-1, n)))
                dfull.append(bk.linear(g, wi.T))
        # Megatron issues this reduce-scatter asynchronously and overlaps
        # it with the weight-gradient GEMM (LinearWithGradAccumulationAnd-
        # AsyncCommunication), so it is marked overlapped.
        fctx.log_comm("ag_matmul.bwd", "reduce_scatter",
                      bk.size_of(dfull[0]) * width,
                      self.group.size, scope=self.group.scope, overlapped=True)
        dx = collectives.reduce_scatter(dfull, self.axis)
        return dx, dw


# -- convenience wrappers ----------------------------------------------------

def copy_to_tensor_parallel_region(x: Tensor, group: ProcessGroup) -> Tensor:
    out = apply(CopyToTensorParallelRegion(group), x)
    out.layout = "replicated"
    return out


def reduce_from_tensor_parallel_region(x: Tensor, group: ProcessGroup) -> Tensor:
    out = apply(ReduceFromTensorParallelRegion(group), x)
    out.layout = "replicated"
    return out


def gather_from_sequence_parallel_region(x: Tensor, group: ProcessGroup,
                                         axis: int = 0) -> Tensor:
    out = apply(GatherFromSequenceParallelRegion(group, axis), x)
    out.layout = "replicated"
    return out


def scatter_to_sequence_parallel_region(x: Tensor, group: ProcessGroup,
                                        axis: int = 0) -> Tensor:
    out = apply(ScatterToSequenceParallelRegion(group, axis), x)
    out.layout = f"shard(dim={axis})"
    return out


def scatter_split_sequence(x: Tensor, group: ProcessGroup, axis: int = 0) -> Tensor:
    out = apply(ScatterSplitSequence(group, axis), x)
    out.layout = f"shard(dim={axis})"
    return out


def gather_with_slice_backward(x: Tensor, group: ProcessGroup, axis: int = 0) -> Tensor:
    out = apply(GatherWithSliceBackward(group, axis), x)
    out.layout = "replicated"
    return out


def all_gather_matmul(x: Tensor, w: Tensor, group: ProcessGroup, axis: int = 0,
                      category: str = "sp_linear_input") -> Tensor:
    out = apply(AllGatherMatmul(group, axis, category=category), x, w)
    out.layout = "replicated-batch/shard(out)"
    return out
