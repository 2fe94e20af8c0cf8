"""Reverse-mode automatic differentiation over dense tensor operations.

Every operation in this module accepts plain ``numpy`` arrays, :class:`Var`
handles or a mix.  It validates and computes its value once, the same way
in every case, and with a :class:`Var` among its operands it also records
a node on that tape.  A node stores the operands it was given as its
parents, and one adjoint rule per parent; ``rules[i](u)`` maps the node's
adjoint ``u`` to the contribution for ``parents[i]``.  Rules are written in
terms of these operations.  A sweep that returns ``Var``s
(``grad(..., as_vars=True)``) therefore records its adjoints as nodes, and
its result can be differentiated again (nested AD); a value-only sweep (the
default) mutes the tape while it runs, so its rules compute plain arrays
and append nothing.

``contract(a, b, axes, perm)`` is ``tensordot`` with its result axes put
in the order ``perm``, computed by BLAS calls that read the larger operand
in place: when it is C-contiguous and its contracted axes form one run
[P][K][Q], it goes to BLAS as a view, through one 2-D ``np.dot`` when P or
Q is empty and one ``np.matmul`` batched over P otherwise.  Only the
smaller operand is copied, into (K, N) order.  The result comes out as
P+N+Q (or N+P when Q is empty), so a ``perm`` asking for that order gets a
C-contiguous array and any other a transposed view.  The layout, the
output shape and order, the block products (below) and the axis pairs and
order of each adjoint come from a plan cached per shapes, axes, ``perm``
and operand masks, so a repeated contraction does its axis arithmetic
once.  The adjoint of a permuted contraction is again one permuted
contraction, of the output's adjoint with its axes relabelled and its
result in the operand's own axis order, so a sweep through contractions
records no ``transpose``, and a forward pass whose operands are read in
place is read in place by its sweeps too.

Block masks.  A value an op makes may carry a static block mask: per axis
its cut points, and which blocks of that grid are structurally zero.
Masks start in :func:`block_core`: the blocks no part covers, and any part
that is exactly zero, such as the delta seed of a tangent's block cores.
Inside a reverse sweep ``block_core`` reads no values, so a sweep's masks
follow from the forward tape's alone.  A :class:`KeptBlockCore` computes
the block core of fixed read-only arrays once, value and mask, and later
records nodes around it.  Masks
follow the structural path to the contractions: ``transpose`` and
``reshape`` (while every cut axis passes through whole) pass them on,
``add_n`` keeps the blocks zero in every term, and ``contract`` works out
its result's.  Every other op, ``take_block``, ``add``, ``sub`` and ``neg``
included, returns an unmasked value, so 0 * inf still makes NaN there.  A
:class:`Var` holds its value's mask, and an array made off a tape has its
mask kept beside it, by identity, for as long as it lives;
:meth:`Tape.input` makes an unmasked ``Var``.  ``contract`` plans the block
products of its operands' masks (an unmasked operand is one block) and
runs only those whose two blocks are non-zero, each one ``np.matmul``
written straight into its own block of the result (batched over a block
axis where the block's axes do not merge into one matrix), and zero-fills
only the blocks no product writes.  It splits when no two products write
one block and the multiply-adds that skips reach ``SPLIT_MIN_MACS`` plus
``SPLIT_WRITE_MACS`` per entry the split writes; otherwise, and below that
crossover, which was measured against the cost of the extra calls and
copies, it runs whole.  A skipped product is
never computed, so a structural zero block that meets an inf or NaN gives
0, not NaN.  The forward pass, the eager sweeps and the replays run the
same plans, and so the same kernels: a replay stays bit-identical to the
eager call, which a rewrite of the recorded schedule alone could not be,
since a GEMM over a sub-block can differ in the last bit from the same
block of the whole GEMM.

The mode operations take a TT core's slices per mode value: ``gather_mode``
and ``scatter_mode`` move whole (r_left, r_right) slices per sample, while
``mode_matmul`` and ``mode_outer`` apply them to, or build them from,
per-sample (N, r) rows with one matrix product per mode value, so no
per-sample slice is ever stored.  Their rows stay in the order of a
:class:`ModeSort` of the mode, which the three row ops take in place of
raw vectors: its ``bounds`` delimit each value's block, and
``take_rows(rows, sort, want)`` is the one permutation from its order into
another sort's, or into the samples' own for ``None``
(:meth:`ModeSort.reorder`).  A sort checks its index vector once and keeps
its arrays read-only, so the ops check only that it orders as many rows as
they are given, and ``mode_matmul`` that it spans the core's mode size.
Index vectors, bounds and permutations are kernel operands, never
parents of a node.

A constant stays a plain float64 array (an index vector an intp one) and
is never recorded: every :class:`Var` is a tape input or depends on one.
``grad`` calls a rule only for a parent that is a ``Var``, so a constant
operand costs no adjoint work.  ``stop_gradient`` returns its operand's
value, a constant at every nesting level.

Every op builds its result in one place, ``_node``, which computes the
value by one kernel call, ``kernel(*values, *args)``, where ``args`` holds
what the op worked out from shapes and arguments alone (a contraction's
plan, a reshape's target, a block's slices), and records a node; besides
:meth:`Tape.input`, no other code makes a :class:`Var`.  ``concat`` is
the :func:`block_core` of its parts.  That split lets calls be replayed.

:func:`_whole_call` replays whole calls, forward pass included, of a
program whose caller declares it static: its kernels and constants are
fixed by the shapes, strides and masks of the arrays it is called on, as
for the objectives of :mod:`ttriem.objectives`.  The recording names those
arrays (a point's block cores, an HVP's direction) as the only sources and
keeps every other array a kernel reads, the program's constants included,
as a literal; a later call with the same layouts runs the forward kernels
and the sweeps as one list of steps, with no tape and no ``Var``.  A value
check made through :func:`_checked` is a pass-through step, so a replay
raises where the eager call would.  Every other program runs its forward
pass and its sweeps eagerly on a tape, every call.

A replay runs on a static arena: one preallocated float64 buffer per
thread, as large as the largest schedule the thread has run
(:func:`thread_arena_bytes`).  The recording plans each value's buffer by
interval colouring of its lifetime, a view's extending its base's
(:attr:`Schedule.arena_bytes`), and a thread binds each schedule to its
arena once: a GEMM step is then one ``np.dot`` or ``np.matmul`` with
``out=`` on ready views, an elementwise kernel or ``add_n`` a ufunc call
with ``out=``, and ``transpose``, ``reshape`` and ``take_block`` views
of planned buffers are built once and run nothing.  An operand the eager GEMM copies to make
it C-contiguous is copied into a planned buffer, so BLAS sees the same
shapes, layouts and transpose flags, and the results are bit-identical to
the eager call's.  Kernels with no ``out=`` form (gathers,
``scatter_mode``'s bincounts, ``batch_matmul``, reductions) allocate their
outputs as before, dropped after their last read, and a kernel that reads
one builds its views at run time.  A run copies the sources in and the
results out, so no caller holds arena memory.

A program object keeps at most ``SCHEDULES_PER_PROGRAM`` schedules, freed
with it.  ``replayed`` counts the steps replays ran, per op name, the
forward kernels of a whole call included; a wrapper around an op sees
only the eager calls.  :meth:`Schedule.stats` counts, per op name, the
steps of a recorded schedule and the bytes they write, and the
multiply-adds its contractions run against those of the same
contractions run whole.
"""

import math
import threading
import weakref
from bisect import bisect_right
from collections import Counter, defaultdict
from functools import lru_cache, partial
from itertools import product
from operator import getitem, index, itemgetter

import numpy as np

from .errors import (
    DimensionError,
    InvalidVariableError,
    UnsupportedOperationError,
)

__all__ = [
    "Tape",
    "Var",
    "record",
    "grad",
    "stop_gradient",
    "contract",
    "reshape",
    "transpose",
    "concat",
    "slice_along",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "exp",
    "log",
    "sin",
    "cos",
    "sigmoid",
    "softplus",
    "reduce_sum",
    "gather_mode",
    "scatter_mode",
    "batch_matmul",
    "ModeSort",
    "take_rows",
    "mode_matmul",
    "mode_outer",
]

class Var:
    """Handle to a tape node: cached primal value, parents and one adjoint
    rule per parent.

    A node is a tape input or has at least one ``Var`` parent; its other
    parents are plain float64 arrays, constants of the computation.
    ``mask`` is the value's block mask, or ``None``.
    """

    __slots__ = ("tape", "value", "op", "parents", "rules", "index", "mask")

    # Keep numpy from consuming Vars in its own ufunc dispatch.
    __array_ufunc__ = None

    def __init__(self, tape, value, op, parents=(), rules=(), mask=None):
        self.tape = tape
        self.value = value
        self.op = op
        self.parents = parents
        self.rules = rules
        self.mask = mask
        self.index = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(op={self.op!r}, shape={self.value.shape}, index={self.index})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 1:
            raise UnsupportedOperationError(
                "only positive integer powers are supported on tape"
            )
        out = self
        for _ in range(n - 1):
            out = mul(out, self)
        return out

    def __matmul__(self, other):
        return contract(self, other, [(self.value.ndim - 1, 0)])

    def __abs__(self):
        raise UnsupportedOperationError("abs is not a differentiable tape operation")

    def sum(self, axes=None):
        return reduce_sum(self, axes)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, perm):
        return transpose(self, perm)


class Tape:
    """Recorded computation graph; nodes are stored in creation order.

    It records only what depends on its inputs: an operation whose operands
    are all constants computes a plain array and adds no node.  Creation
    order is a topological order (a node's parents always precede it), and
    a recording reverse sweep appends its own nodes at the end, so a tape
    that has been swept once can be swept again to differentiate through
    the first sweep.  While ``recording`` is false, operations read this
    tape's ``Var``s as their plain values and record nothing.
    """

    def __init__(self):
        self.nodes = []
        self.recording = True

    def __len__(self):
        return len(self.nodes)

    def input(self, value) -> Var:
        """Register a differentiable input (a leaf of the graph), with no
        block mask."""
        arr = np.asarray(value, dtype=np.float64)
        return Var(self, arr, "input")

    def clear(self):
        """Drop every node, unlinked from its parents and adjoint rules.

        A tape is a reference cycle (its nodes refer to it, and elementwise
        rules to their own node), so without this a finished tape and its
        arrays wait for the cyclic collector.  The dropped ``Var``s must not
        be used again.
        """
        for node in self.nodes:
            node.parents = node.rules = ()
        self.nodes.clear()


def record(inputs, program):
    """Run ``program`` on a fresh tape and return ``(tape, output)``.

    ``program`` receives one :class:`Var` per entry of ``inputs`` and must
    return a scalar: a 0-d :class:`Var`, or a plain number for a program
    that does not depend on its inputs, returned as a 0-d float64 array.
    """
    tape = Tape()
    arg_vars = [tape.input(v) for v in inputs]
    out = program(*arg_vars)
    if not isinstance(out, Var):
        out = np.asarray(out, dtype=np.float64)
    if out.shape != ():
        raise UnsupportedOperationError(
            f"recorded program must return a scalar, got shape {out.shape}"
        )
    return tape, out


def grad(tape, output, wrt, as_vars=False):
    """Derivatives of a scalar ``output`` with respect to tape inputs.

    ``output`` is a 0-d :class:`Var` of ``tape``, or a plain scalar (a
    constant, whose gradients are zeros).  The sweep walks nodes in
    decreasing creation index and calls each node's adjoint rule for every
    parent that is a ``Var``; constant parents are passed by.  With
    ``as_vars=True`` the rules emit their computations as new nodes on the
    same tape, so the returned gradients can be differentiated again; a
    gradient that does not depend on the inputs is a plain array.  With the
    default ``as_vars=False`` the sweep is value-only: the tape stops
    recording until it returns (also when a rule raises), the rules compute
    plain ndarrays, the tape gains no node and those arrays are returned.
    """
    if isinstance(output, Var) and output.tape is not tape:
        raise InvalidVariableError("output does not belong to the given tape")
    if np.shape(output) != ():
        raise InvalidVariableError("grad requires a scalar output")
    for w in wrt:
        if not isinstance(w, Var) or w.tape is not tape or w.op != "input":
            raise InvalidVariableError("wrt variables must be inputs of the tape")
    if not isinstance(output, Var):
        return [np.zeros(w.shape) for w in wrt]

    recording = tape.recording
    tape.recording = recording and bool(as_vars)
    _state.sweeping += 1
    try:
        wanted = {w.index for w in wrt}
        results = {}
        contribs = defaultdict(list, {output.index: [np.ones(())]})
        for i in range(output.index, -1, -1):
            lst = contribs.pop(i, None)
            if lst is None:
                continue
            node = tape.nodes[i]
            adj = lst[0] if len(lst) == 1 else add_n(lst)
            if i in wanted:
                results[i] = adj
            for parent, rule in zip(node.parents, node.rules):
                if isinstance(parent, Var):
                    contribs[parent.index].append(rule(adj))
        return [results[w.index] if w.index in results else np.zeros(w.shape)
                for w in wrt]
    finally:
        tape.recording = recording
        _state.sweeping -= 1


# ---------------------------------------------------------------------------
# operands and nodes
#
# Every op reads its operands once, through _operands, which returns the tape
# (None when no operand is a Var on a recording tape), the operands, a plain
# one as a float64 array, and their float64 values.  The op validates on
# those values and builds its result through _node, so it does both the same
# way on and off a tape: _node computes the value by one kernel call, hands
# the call to the recorder while a whole call is recorded, and records a
# node only when there is a tape.  A Var whose tape is not recording (a
# value-only sweep) counts as its value.  A Var's value and a float64 scalar
# pass unconverted, so a value keeps its identity from the kernel that made
# it to every kernel that reads it (the recorder of :func:`_whole_call`
# names values by identity).


def _operands(*parts):
    # (tape, operands, values) of the operands ``parts``.
    tape, operands, vals = None, [], []
    for a in parts:
        if isinstance(a, Var):
            if a.tape.recording:
                if tape is None:
                    tape = a.tape
                elif a.tape is not tape:
                    raise InvalidVariableError("operands live on different tapes")
                operands.append(a)
                vals.append(a.value)
                continue
            a = a.value
        elif type(a) is not np.float64:
            a = np.asarray(a, dtype=np.float64)
        operands.append(a)
        vals.append(a)
    return tape, operands, vals


def _node(tape, op, kernel, vals, parents, rules, args=(), mask=None):
    # The result of an ``op``, kernel(*vals, *args): its value off a tape, a
    # node on one.  A recording call logs the kernel call.  ``mask`` is the
    # value's block mask, worked out from the operands' masks alone.
    val = kernel(*vals, *args)
    recorder = _state.recorder
    if recorder is not None:
        recorder.step(op, kernel, vals, args, val)
    if tape is not None:
        return Var(tape, val, op, parents, rules, mask)
    if mask is not None:
        _set_mask(val, mask)
    return val


# ---------------------------------------------------------------------------
# block masks (see the module docstring)
#
# A mask is (cuts, zero): per axis its cut points (0, ..., extent), and the
# sorted cells of that grid, one block index per axis, that are structurally
# zero.  It is canonical (_canonical), so one zero pattern has one mask, and
# a value without a zero block, or of no axis, has none (None).  A Var holds
# its value's mask; _masks holds the mask of each live masked array made off
# a tape, by identity, and _mask_refs a weak reference to it that drops both
# entries when the array dies, so no array is kept alive to hold its mask.
# An op reads its operands' masks before _operands turns a Var of a muted
# tape into its value.

_masks = {}
_mask_refs = {}


def _mask_of(x):
    return x.mask if x.__class__ is Var else _masks.get(id(x))


def _set_mask(val, mask):
    key = id(val)
    _masks[key] = mask
    _mask_refs[key] = weakref.ref(val, lambda _: (_masks.pop(key, None), _mask_refs.pop(key, None)))


def _cells(cuts):
    return product(*[range(len(points) - 1) for points in cuts])


def _canonical(cuts, zero):
    # The mask of the grid ``cuts`` whose cells ``zero`` are zero, keeping a
    # cut only where it parts a zero cell from a non-zero one.
    if not zero or not cuts:
        return None
    cuts, zero = [list(points) for points in cuts], set(zero)
    for ax, points in enumerate(cuts):
        for t in range(len(points) - 2, 0, -1):
            if all((c in zero) == (c[:ax] + (t,) + c[ax + 1:] in zero)
                   for c in _cells(cuts) if c[ax] == t - 1):
                del points[t]
                zero = {c[:ax] + (c[ax] - 1,) + c[ax + 1:] if c[ax] >= t else c for c in zero}
    return tuple(map(tuple, cuts)), tuple(sorted(zero))


def _zero_cells(mask, cuts):
    # The cells of the grid ``cuts`` that ``mask`` calls zero; ``cuts``
    # refine the mask's own.
    own, zero = mask[0], set(mask[1])
    owners = [[bisect_right(o, c) - 1 for c in points[:-1]] for o, points in zip(own, cuts)]
    return {cell for cell in _cells(cuts) if tuple(o[i] for o, i in zip(owners, cell)) in zero}


def _block_core_mask(shape, ats, zero_parts):
    # Zero where no part but those listed in ``zero_parts`` lies.
    cuts = [sorted({0, n}.union(*[at[ax] for at in ats])) for ax, n in enumerate(shape)]
    zero = set(_cells(cuts))
    for i, at in enumerate(ats):
        if i not in zero_parts:
            zero -= set(product(*[[t for t in range(len(points) - 1)
                                   if lo <= points[t] and points[t + 1] <= hi]
                                  for (lo, hi), points in zip(at, cuts)]))
    return _canonical(cuts, zero)


@lru_cache(maxsize=1024)
def _transpose_mask(mask, perm):
    return (tuple(mask[0][p] for p in perm),
            tuple(sorted(tuple(c[p] for p in perm) for c in mask[1])))


@lru_cache(maxsize=1024)
def _reshape_mask(mask, old, new):
    # The mask of a reshape from ``old`` to ``new`` in which every cut axis
    # passes through whole, as the new axis of its extent with as many
    # entries before it, or None.  Uncut axes may merge, split, come or go.
    if math.prod(old) != math.prod(new):  # a -1 in ``new``
        return None
    cuts, zero = mask
    axis_at = {(math.prod(new[:j]), n): j for j, n in enumerate(new)}
    source = {}  # new axis -> the old axis whose block index it carries
    for i, points in enumerate(cuts):
        if len(points) > 2:
            j = axis_at.get((math.prod(old[:i]), old[i]))
            if j is None:
                return None
            source[j] = i
    return _canonical([cuts[source[j]] if j in source else (0, n) for j, n in enumerate(new)],
                      {tuple(c[source[j]] if j in source else 0 for j in range(len(new)))
                       for c in zero})


@lru_cache(maxsize=1024)
def _common_mask(masks):
    # The mask of a sum of same-shaped terms of masks ``masks``: zero where
    # every term is.
    cuts = [sorted(set().union(*axis)) for axis in zip(*[m[0] for m in masks])]
    return _canonical(cuts, set.intersection(*[_zero_cells(m, cuts) for m in masks]))


def _unbroadcast(g, shape):
    # Elementwise ops allow mixing a scalar with a tensor; fold the gradient
    # of the scalar operand back down.
    if g.shape != shape and shape == ():
        return reduce_sum(g)
    return g


def add_n(parts):
    """Sum of same-shaped terms (used for adjoint accumulation)."""
    masks = [_mask_of(p) for p in parts]
    tape, parts, vals = _operands(*parts)
    if not vals:
        raise DimensionError("add_n needs at least one term, got shape (0,)")
    for v in vals[1:]:
        if v.shape != vals[0].shape:
            raise DimensionError(f"add_n term shapes differ: {vals[0].shape} vs {v.shape}")
    return _node(tape, "add_n", _add_n_value, vals, tuple(parts), (lambda u: u,) * len(parts),
                 mask=None if None in masks else _common_mask(tuple(masks)))


def _add_n_value(*vals):
    if len(vals) == 1:
        return vals[0].copy()
    val = np.add(vals[0], vals[1])
    for v in vals[2:]:
        val += v
    return val


def _binary(name, fwd, rule_a, rule_b):
    # rule_x(u, a, b, out) is the adjoint for one operand before the
    # scalar-broadcast fold.
    def op(a, b):
        tape, (a, b), vals = _operands(a, b)
        sa, sb = vals[0].shape, vals[1].shape
        if sa != sb and sa != () and sb != ():
            raise DimensionError(f"{name}: elementwise shapes differ: {sa} vs {sb}")
        out = _node(tape, name, fwd, vals, (a, b), (
            lambda u: _unbroadcast(rule_a(u, a, b, out), a.shape),
            lambda u: _unbroadcast(rule_b(u, a, b, out), b.shape),
        ))
        return out

    op.__name__ = name
    return op


add = _binary("add", np.add, lambda u, a, b, out: u, lambda u, a, b, out: u)
sub = _binary("sub", np.subtract, lambda u, a, b, out: u, lambda u, a, b, out: neg(u))
mul = _binary("mul", np.multiply, lambda u, a, b, out: mul(u, b), lambda u, a, b, out: mul(u, a))
div = _binary("div", np.divide, lambda u, a, b, out: div(u, b),
              lambda u, a, b, out: neg(mul(div(u, b), out)))


def _unary(name, fwd, rule):
    # rule(u, a, out) is the adjoint for the operand.
    def op(a):
        tape, (a,), vals = _operands(a)
        out = _node(tape, name, fwd, vals, (a,), (lambda u: rule(u, a, out),))
        return out

    op.__name__ = name
    return op


def _sigmoid_np(t):
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


neg = _unary("neg", np.negative, lambda u, a, out: neg(u))
exp = _unary("exp", np.exp, lambda u, a, out: mul(u, out))
log = _unary("log", np.log, lambda u, a, out: div(u, a))
sin = _unary("sin", np.sin, lambda u, a, out: mul(u, cos(a)))
cos = _unary("cos", np.cos, lambda u, a, out: neg(mul(u, sin(a))))
sigmoid = _unary("sigmoid", _sigmoid_np, lambda u, a, out: mul(u, mul(out, sub(1.0, out))))
softplus = _unary("softplus", lambda t: np.logaddexp(0.0, t), lambda u, a, out: mul(u, sigmoid(a)))


def stop_gradient(a):
    """The operand's float64 value, a constant at every nesting level; on a
    tape it records no node."""
    return _operands(a)[2][0]


def reshape(a, shape):
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    else:
        shape = tuple(int(s) for s in shape)
    mask = _mask_of(a)
    tape, (a,), vals = _operands(a)
    old = vals[0].shape
    return _node(tape, "reshape", np.reshape, vals, (a,), (lambda u: reshape(u, old),),
                 (shape,), mask and _reshape_mask(mask, old, shape))


def transpose(a, perm):
    mask = _mask_of(a)
    tape, (a,), vals = _operands(a)
    perm = tuple(perm)
    if mask is not None and len(perm) == len(mask[0]):
        mask = _transpose_mask(mask, tuple(p % len(perm) for p in perm))
    return _node(tape, "transpose", np.transpose, vals, (a,),
                 (lambda u: transpose(u, np.argsort([p % len(perm) for p in perm])),),
                 (perm,), mask)


def concat(parts, axis):
    """``parts`` joined along ``axis``: the :func:`block_core` that holds
    each part at its offset along ``axis``.  The parts must agree in every
    other extent."""
    _, parts, vals = _operands(*parts)
    if not vals:
        raise DimensionError("concat needs at least one part")
    first = vals[0].shape
    axis = range(len(first))[axis]  # as in contract: no axis is wrapped round
    for v in vals[1:]:
        if v.shape[:axis] + v.shape[axis + 1:] != first[:axis] + first[axis + 1:]:
            raise DimensionError(f"concat parts differ off axis {axis}: {first} vs {v.shape}")
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals]).tolist()
    shape = first[:axis] + (offsets[-1],) + first[axis + 1:]
    return block_core(shape, [
        (part, [(lo, hi) if i == axis else (0, n) for i, n in enumerate(shape)])
        for part, lo, hi in zip(parts, offsets, offsets[1:])
    ])


def slice_along(a, axis, start, stop):
    """Contiguous slice ``a[..., start:stop, ...]`` along one axis: the
    :func:`take_block` of that range of ``axis`` and all of every other."""
    _, (a,), (av,) = _operands(a)
    axis = range(av.ndim)[axis]  # as in contract: no axis is wrapped round
    extent = av.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise DimensionError(f"slice [{start}:{stop}] out of range for extent {extent}")
    return take_block(a, [(start, stop) if i == axis else (0, n) for i, n in enumerate(av.shape)])


@lru_cache(maxsize=1024)
def _block_layout(shape, ats, shapes):
    # (shape, ats, slices) for blocks ``ats`` of an array of ``shape``, each
    # ((start, stop), ...) per axis, checked to lie within it, to fit the
    # operand shapes ``shapes`` and not to overlap; cached per key.
    shape = tuple(int(n) for n in shape)
    ats = tuple(tuple((int(lo), int(hi)) for lo, hi in at) for at in ats)
    for at, part in zip(ats, shapes):
        if len(at) != len(shape) or any(not 0 <= lo <= hi <= n for (lo, hi), n in zip(at, shape)):
            raise DimensionError(f"block {at} does not lie within shape {shape}")
        if part != tuple(hi - lo for lo, hi in at):
            raise DimensionError(f"an operand of shape {part} does not fill block {at}")
    for i, at in enumerate(ats):
        for other in ats[:i]:
            if all(max(lo, lo2) < min(hi, hi2) for (lo, hi), (lo2, hi2) in zip(at, other)):
                raise DimensionError(f"blocks {other} and {at} overlap")
    return shape, ats, tuple(tuple(slice(lo, hi) for lo, hi in at) for at in ats)


def take_block(a, at):
    """The block ``a[start_0:stop_0, start_1:stop_1, ...]`` for ``at`` =
    ((start_0, stop_0), (start_1, stop_1), ...), one pair per axis, as a
    view, with no block mask.  Its adjoint is the :func:`block_core` that
    puts the block back into zeros of ``a``'s shape."""
    tape, (a,), vals = _operands(a)
    at = tuple(map(tuple, at))
    shape, (at,), (slices,) = _block_layout(vals[0].shape, (at,),
                                            (tuple(hi - lo for lo, hi in at),))
    return _node(tape, "take_block", getitem, vals, (a,),
                 (lambda u: block_core(shape, [(u, at)]),), (slices,))


def block_core(shape, parts):
    """An array of ``shape``, zero but for the blocks of ``parts``.

    Each part is ``(operand, at)``: the operand is written at the block
    ``at``, one (start, stop) pair per axis, and the blocks must not
    overlap.  The adjoint for each operand takes its block back out
    (:func:`take_block`).  A tangent's block core [[V, 0], [delta, U]] is
    one such node, however many of its blocks are constants.
    """
    tape, operands, vals = _operands(*[part for part, _ in parts])
    return _node(tape, "block_core", _block_core_value, vals, tuple(operands),
                 *_block_core_plan(shape, [at for _, at in parts], vals))


def _block_core_plan(shape, ats, vals):
    # The adjoint rules, kernel arguments and mask of the block_core of
    # ``vals`` at the blocks ``ats``.
    # A sweep's parts are zero by structure only, never by value: the
    # masks of its kernels must not depend on the values it computes.
    zero = () if _state.sweeping else tuple(i for i, v in enumerate(vals) if _is_zero(v))
    if zero and _state.recorder is not None:
        _state.recorder.value_mask([vals[i] for i in zero])
    return _block_core_static(tuple(shape), tuple(tuple(map(tuple, at)) for at in ats),
                              tuple(v.shape for v in vals), zero)


@lru_cache(maxsize=1024)
def _block_core_static(shape, ats, shapes, zero):
    # _block_core_plan for operands of ``shapes`` whose parts ``zero`` are
    # zero, cached per key.
    shape, ats, slices = _block_layout(shape, ats, shapes)
    return (tuple(lambda u, at=at: take_block(u, at) for at in ats), (shape, slices),
            _block_core_mask(shape, ats, zero))


class KeptBlockCore:
    """The :func:`block_core` of fixed parts whose first operand may vary,
    computed once for the parts' own arrays.

    ``parts`` are (array, at) pairs as for :func:`block_core`; the arrays
    must be float64 and are not to be written to while this is kept.  The
    block core of the parts' own arrays is computed here and kept as
    ``value``, read-only and with its mask.
    ``of(x)`` is the block_core of ``x`` in the first part's block and the
    other parts' arrays in theirs.  Given the first part's own array, or a
    tape variable holding it, it is ``value``, or on a tape a node around
    it, and computes nothing.  Its kernel returns ``value`` itself, so a
    recording that names ``value`` as a source logs no step for it (see
    :class:`_Recorder`): a replay reads each call's own block core.
    """

    __slots__ = ("_shape", "_parts", "_rest", "_plan", "value")

    def __init__(self, shape, parts):
        self._shape = shape
        self._parts = parts
        self._rest = [a for a, _ in parts[1:]]
        vals = [a for a, _ in parts]
        rules, args, mask = _block_core_plan(shape, [at for _, at in parts], vals)
        self.value = _block_core_value(*vals, *args)
        self.value.flags.writeable = False
        if mask is not None:
            _set_mask(self.value, mask)
        self._plan = (rules, (self.value,), mask)

    def of(self, first):
        own, at = self._parts[0]
        if (first.value if first.__class__ is Var else first) is not own:
            return block_core(self._shape, [(first, at), *self._parts[1:]])
        tape, operands, vals = _operands(first, *self._rest)
        return _node(tape, "block_core", _kept_value, vals, tuple(operands), *self._plan)


def _kept_value(*args):
    return args[-1]


def _is_zero(v):
    # Whether every entry of ``v`` is 0; a non-zero first entry settles it
    # without a pass (NaN counts as non-zero).
    return not (v.size and v.item(0)) and not np.count_nonzero(v)


def _block_core_value(*args):
    *vals, shape, slices = args
    out = np.zeros(shape)
    for v, at in zip(vals, slices):
        out[at] = v
    return out


def reduce_sum(a, axes=None):
    tape, (a,), vals = _operands(a)
    if axes is None:
        return _node(tape, "sum", np.sum, vals, (a,), (lambda u: mul(u, np.ones(a.shape)),))

    # As in contract, no axis is wrapped round.
    axes = tuple(sorted(range(vals[0].ndim)[ax] for ax in axes))

    def rule(u):
        # The outer product's axes are the kept then the summed ones; its
        # output order puts each back in its place in a.
        kept = [i for i in range(len(a.shape)) if i not in axes]
        ones = np.ones(tuple(a.shape[ax] for ax in axes))
        return contract(u, ones, [], _argsort(kept + list(axes)))

    return _node(tape, "sum", np.sum, vals, (a,), (rule,), (axes,))


def _argsort(perm):
    # The inverse of a permutation, as a tuple.
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def _gemm_layouts(a_big, sl, cl, cs, l_ids, s_ids, ext, perm):
    # The ways one GEMM can compute a contraction whose big operand, of
    # shape sl, pairs its axes cl with the small operand's axes cs; l_ids
    # and s_ids map each operand's free axes, in axis order, to their
    # unpermuted result axes, of extents ext.  big is taken as (P, K, Q):
    # its free axes before the contracted ones, the contracted ones, the
    # free ones after.  For a C-contiguous big whose contracted axes form
    # one run (axes of extent 1 may sit anywhere) that is a view; otherwise
    # big is copied, with P all its free axes and Q empty.  The small
    # operand is copied into (K, N) order, N its free axes in the order perm
    # wants them.  The result comes out as P+N+Q, or as N+P when Q is empty
    # (n_first), never as P+Q+N: BLAS would read a (K, Q) big transposed,
    # which took twice as long for a (512, 2560) one (OpenBLAS, one
    # thread).  Yields (run, result in perm's order up to axes of extent 1,
    # result axes in the order they come out, layout) for each order.
    wide = sorted(i for i in cl if sl[i] != 1)
    run = not wide or all(sl[i] == 1 for i in l_ids if wide[0] < i < wide[-1])
    lo = wide[0] if wide and run else len(sl)
    k = sorted(cl)
    s_axis = {j: i for i, j in s_ids.items()}
    n_ids = [j for j in perm if j in s_axis]
    s_order = [cs[cl.index(i)] for i in k] + [s_axis[j] for j in n_ids]
    p = [i for i in l_ids if i < lo]
    q = [i for i in l_ids if i > lo]
    p_ids, q_ids = [l_ids[i] for i in p], [l_ids[i] for i in q]
    pn, kn, qn = (math.prod(sl[i] for i in axes) for axes in (p, k, q))
    for n_first in (False, True)[:1 + (qn == 1)]:
        got = n_ids + p_ids + q_ids if n_first else p_ids + n_ids + q_ids
        out = tuple(got.index(j) for j in perm)
        yield run, [j for j in got if ext[j] != 1] == [j for j in perm if ext[j] != 1], tuple(got), (
            a_big,
            _unless_identity(p + k + q),
            (pn, kn, qn),
            _unless_identity(s_order),
            (kn, math.prod(ext[j] for j in n_ids)),
            n_first,
            tuple(ext[j] for j in got),
            _unless_identity(out),
        )


def _unless_identity(order):
    # An axis order as a tuple, or None for the identity (no transpose).
    order = tuple(order)
    return None if order == tuple(range(len(order))) else order


# A contraction is split into its non-zero block products only when the
# multiply-adds that skips reach SPLIT_MIN_MACS plus SPLIT_WRITE_MACS for
# each entry the split writes beyond the whole GEMM's.  The rule was fitted
# when each product's result was copied into its block after a zero fill
# of the whole result; products now write their blocks in place and only
# unwritten blocks are zeroed, and the rule is kept as fitted, so the same
# contractions split.  Fitted (one BLAS thread) to the
# split and whole times of the 750 maskable contractions of qf, gram and
# rayleigh HVPs at d=8, n=8, r=5, 10 and 20, completion at r=5 and expmach
# at r=5: a GEMM with more than a few dozen terms per entry runs at about
# 0.05-0.1 ns per multiply-add, while a product costs about 10 us of calls
# and copies and a copied or zero-filled entry 1-2.5 ns.  The rule runs
# those contractions in 41.0 ms at r=20 (whole: 54.3, the faster of the two
# each time: 39.6) and keeps r=5 whole, where splits cost more than they
# save.
SPLIT_MIN_MACS = 200_000
SPLIT_WRITE_MACS = 15


@lru_cache(maxsize=4096)
def _contract_plan(sa, sb, axes, perm, ma, mb):
    # ((kernel, plan), grad_a, grad_b, mask) of contract(a, b, axes, perm)
    # for a of shape sa and mask ma and b of shape sb and mask mb, built once
    # per key: the kernel (one GEMM, or the block products) and its plan,
    # each adjoint's axes and order, and the result's mask.
    # Validation happens here, so a key gets a plan only if its shapes, axes
    # and perm are valid.
    # range(n)[p] maps p in [-n, n) to [0, n) and raises IndexError for any other p.
    ca = tuple(range(len(sa))[p] for p, _ in axes)
    cb = tuple(range(len(sb))[q] for _, q in axes)
    if len(set(ca)) < len(ca) or len(set(cb)) < len(cb):
        raise DimensionError(f"contracted axes repeat an axis: {axes}")
    for p, q in zip(ca, cb):
        if sa[p] != sb[q]:
            raise DimensionError(
                f"contracted extents differ: a.shape[{p}]={sa[p]} vs b.shape[{q}]={sb[q]}"
            )
    fa = [i for i in range(len(sa)) if i not in ca]
    fb = [i for i in range(len(sb)) if i not in cb]
    nf = len(fa) + len(fb)
    if perm is None:
        perm = tuple(range(nf))
    elif len(perm) != nf:
        raise DimensionError(f"perm {perm} does not order the {nf} result axes")
    else:
        perm = tuple(range(nf)[p] for p in perm)
        if len(set(perm)) < nf:
            raise DimensionError(f"perm {perm} repeats an axis")
    # Each adjoint is one contract of the output's adjoint u, whose axis
    # inv[j] is unpermuted result axis j: u's axes are relabelled, never
    # moved.  a's pairs u's axes of b's free ones with those axes, and its
    # result (u's other axes in order, then b's contracted axes in order)
    # is permuted into a's axis order; b's likewise.
    inv = _argsort(perm)
    ua = [i for i in range(nf) if perm[i] < len(fa)]
    ub = [i for i in range(nf) if perm[i] >= len(fa)]
    to_a = [fa[perm[i]] for i in ua] + [ca[cb.index(q)] for q in sorted(cb)]
    to_b = [cb[ca.index(p)] for p in sorted(ca)] + [fb[perm[i] - len(fa)] for i in ub]
    grad_a = (tuple((inv[len(fa) + j], q) for j, q in enumerate(fb)), _argsort(to_a))
    grad_b = (tuple((p, inv[j]) for j, p in enumerate(fa)), _argsort(to_b))
    ext = [sa[i] for i in fa] + [sb[i] for i in fb]
    dense = math.prod(ext) * math.prod(sa[p] for p in ca)
    gemm, got = _gemm_plan(sa, sb, ca, cb, perm)
    whole = (_gemm, gemm)
    if ma is None and mb is None:
        return whole, grad_a, grad_b, None
    # The block grid: each free axis cut as its operand's mask cuts it, each
    # contracted pair at the cuts of both.  A cell of the product space
    # (free axes of a, contracted pairs, free axes of b) is a block product,
    # kept when both of its operand blocks are non-zero.
    grid_a = list(ma[0] if ma else [(0, n) for n in sa])
    grid_b = list(mb[0] if mb else [(0, n) for n in sb])
    for p, q in zip(ca, cb):
        grid_a[p] = grid_b[q] = tuple(sorted(set(grid_a[p]) | set(grid_b[q])))
    zero_a = _zero_cells(ma, grid_a) if ma else set()
    zero_b = _zero_cells(mb, grid_b) if mb else set()
    grid = [grid_a[i] for i in fa] + [grid_a[p] for p in ca] + [grid_b[i] for i in fb]
    ia, ib = fa + list(ca), list(cb) + fb  # operand axes in product-space order
    na = len(fa) + len(ca)
    kept = [c for c in _cells(grid)
            if _unpermute(c[:na], ia) not in zero_a and _unpermute(c[len(fa):], ib) not in zero_b]
    live = {c[:len(fa)] + c[na:] for c in kept}
    out_grid = [grid[j] for j in range(len(fa))] + grid[na:]
    mask = _canonical([out_grid[j] for j in perm],
                      {tuple(c[j] for j in perm) for c in _cells(out_grid) if c not in live})
    # Products that differ along one axis only, and meet there, merge into
    # one, the contracted axes first, so products that would sum into one
    # result block become one product.  A split never sums: while two
    # products still write overlapping blocks, the contraction runs whole.
    boxes = [tuple((i, i + 1) for i in c) for c in kept]
    for ax in list(range(len(fa), na)) + list(range(len(fa))) + list(range(na, len(grid))):
        boxes = _merge_along(boxes, ax)
    # The result is laid out as the whole GEMM's would be, in a buffer whose
    # axes are the result axes in the order ``got`` that GEMM gives them,
    # and each product comes out in that order too where it can, so its
    # GEMM writes straight into its block of the buffer.  Only the blocks
    # no product writes are zero-filled.  A block's index ends in ``...``,
    # so the block of a 0-d buffer is a view too.
    shape = tuple(ext[j] for j in got)
    strides = [8 * math.prod(shape[k + 1:]) for k in range(len(shape))]
    products, written, macs = [], [], 0
    for box in sorted(boxes):
        span = [(g[lo], g[hi]) for g, (lo, hi) in zip(grid, box)]
        macs += math.prod(hi - lo for lo, hi in span)
        at_a, at_b = _unpermute(span[:na], ia), _unpermute(span[len(fa):], ib)
        at = (span[:len(fa)] + span[na:])
        if any(all(lo < hi2 and lo2 < hi for (lo, hi), (lo2, hi2) in zip(at, other))
               for other in written):
            return whole, grad_a, grad_b, mask
        written.append(at)
        gemm, got_p = _gemm_plan(tuple(hi - lo for lo, hi in at_a),
                                 tuple(hi - lo for lo, hi in at_b), ca, cb, perm, got)
        axes = [got.index(j) for j in got_p]  # the buffer axis of each product axis
        products.append((gemm, _slices(at_a), _slices(at_b), _slices([at[j] for j in got]) + (...,),
                         _unless_identity(axes),
                         _product_layout(gemm, [strides[k] for k in axes])))
    writes = sum(math.prod(hi - lo for lo, hi in at) for at in written)
    fill = writes < math.prod(ext)
    if dense - macs < SPLIT_MIN_MACS + SPLIT_WRITE_MACS * (writes + fill * math.prod(ext)):
        return whole, grad_a, grad_b, mask
    zeros = [tuple((i, i + 1) for i in c) for c in _cells(out_grid) if c not in live]
    for ax in range(len(out_grid)):
        zeros = _merge_along(zeros, ax)
    zeros = tuple(_slices([(out_grid[j][box[j][0]], out_grid[j][box[j][1]]) for j in got]) + (...,)
                  for box in sorted(zeros))
    buffer = (shape, _unless_identity(got.index(j) for j in perm), fill, zeros)
    return (_block_products, (buffer, tuple(products), macs, dense)), grad_a, grad_b, mask


def _product_layout(gemm, strides):
    # How the GEMM ``gemm`` of a block product writes straight into its
    # block of the result buffer, whose axes, in the order the GEMM's result
    # axes come out, step by ``strides`` bytes: as np.matmul(x, y, out=o),
    # x and y views of the C-contiguous operands and o one of the block.
    # The block's axes of each role (big's free axes P, small's N, big's
    # trailing free axes Q) merge into runs where one steps over the next
    # whole, so a block that spans its buffer's inner axes is one matrix;
    # any other run is a batch axis of the matmul.  The core of o keeps the
    # unit stride last, so BLAS writes it (o^T = y^T x^T where it must).
    # Returns (x is small, x's shape and axis order, y's, o's): each view
    # is a reshape, then a transpose.
    _, _, big_2d, _, (kn, nn), kind, shape, _ = gemm
    roles = ("N", "P") if kind == 1 else ("P", "N") if kind == 0 else ("P", "N", "Q")
    sizes = {"P": 1 if kind == 2 else big_2d[0], "N": nn, "Q": big_2d[-1]}
    axes = iter([(n, s) for n, s in zip(shape, strides) if n != 1])
    runs = {}
    for role in roles:
        merged, size = [], 1
        while size < sizes[role]:
            n, s = next(axes)
            size *= n
            if merged and merged[-1][1] == n * s:
                merged[-1] = (merged[-1][0] * n, s)
            else:
                merged.append((n, s))
        runs[role] = merged or [(1, 8)]
    rows, cols = {0: ("P", "N"), 1: ("N", "P")}.get(kind, ("N", "Q"))
    if runs[cols][-1][1] != 8 and runs[rows][-1][1] == 8:
        rows, cols = cols, rows
    o_axes = [(role, i) for role in roles for i in range(len(runs[role]))]
    core = [(rows, len(runs[rows]) - 1), (cols, len(runs[cols]) - 1)]
    batch = [a for a in o_axes if a not in core]

    def operand(small, at, left):
        # small is (K, N...), big (P..., K, Q...); batch axes it lacks are
        # appended as 1s.
        items = ([("K", 0)] + [("N", i) for i in range(len(runs["N"]))] if small else
                 [("P", i) for i in range(len(runs["P"]))] + [("K", 0)]
                 + [("Q", i) for i in range(len(runs.get("Q", ())))])
        dims = [kn if role == "K" else runs[role][i][0] for role, i in items]
        for a in batch:
            if a not in items:
                items.append(a)
                dims.append(1)
        ends = [at, ("K", 0)] if left else [("K", 0), at]
        return tuple(dims), tuple(items.index(a) for a in batch + ends)

    x_small = rows == "N"
    return (x_small, *operand(x_small, core[0], True), *operand(not x_small, core[1], False),
            tuple(runs[role][i][0] for role, i in o_axes),
            tuple(o_axes.index(a) for a in batch + core))


def _unpermute(items, axes):
    # ``items`` given for ``axes``, in axis order.
    out = [None] * len(axes)
    for i, ax in enumerate(axes):
        out[ax] = items[i]
    return tuple(out)


def _slices(span):
    return tuple(slice(lo, hi) for lo, hi in span)


def _merge_along(boxes, ax):
    # ``boxes`` (ranges of grid cells per axis) with every run of them that
    # agrees off axis ``ax`` and meets along it joined into one.
    runs = defaultdict(list)
    for box in sorted(boxes, key=lambda b: (b[:ax] + b[ax + 1:], b[ax])):
        rest = box[:ax] + box[ax + 1:]
        spans = runs[rest]
        if spans and spans[-1][1] == box[ax][0]:
            spans[-1] = (spans[-1][0], box[ax][1])
        else:
            spans.append(box[ax])
    return [rest[:ax] + (span,) + rest[ax:] for rest, spans in runs.items() for span in spans]


@lru_cache(maxsize=4096)
def _gemm_plan(sa, sb, ca, cb, perm, want=None):
    # The layout of one GEMM computing the contraction of a (shape sa) and b
    # (shape sb) over the axis pairs (ca, cb), its result in the order perm,
    # and the order its result axes come out in.  The larger operand is the
    # big one; between two of one size, either.  The first layout whose
    # result axes come out in the order ``want`` wins, when one is wanted;
    # then the first that copies no big operand and gives the result in
    # perm's order, or else the first that copies none.
    fa = [i for i in range(len(sa)) if i not in ca]
    fb = [i for i in range(len(sb)) if i not in cb]
    ca, cb = list(ca), list(cb)
    a_ids = {i: j for j, i in enumerate(fa)}
    b_ids = {i: len(fa) + j for j, i in enumerate(fb)}
    ext = [sa[i] for i in fa] + [sb[i] for i in fb]
    size_a, size_b = math.prod(sa), math.prod(sb)
    layouts = []
    if size_a >= size_b:
        layouts += _gemm_layouts(True, sa, ca, cb, a_ids, b_ids, ext, perm)
    if size_b >= size_a:
        layouts += _gemm_layouts(False, sb, cb, ca, b_ids, a_ids, ext, perm)
    *_, got, (a_big, big_axes, (pn, kn, qn), small_axes, small_2d, n_first, shape, out) = max(
        layouts, key=lambda scored: (scored[2] == want, *scored[:2]))
    # The GEMM, on big as big_2d: 0 is big @ small, 1 small^T @ big^T and
    # 2 small^T @ big, all 2-D, and 3 the matmul of small^T batched over P.
    if qn == 1:
        big_2d, gemm = (pn, kn), 1 if n_first else 0
    elif pn == 1:
        big_2d, gemm = (kn, qn), 2
    else:
        big_2d, gemm = (pn, kn, qn), 3
    return (a_big, big_axes, big_2d, small_axes, small_2d, gemm, shape, out), got


def contract(a, b, axes, perm=None):
    """Tensor contraction over ``(axis_of_a, axis_of_b)`` pairs.

    Result axes are the free axes of ``a`` followed by the free axes of
    ``b``, then reordered by ``perm`` as ``np.transpose`` would.  An empty
    ``axes`` list is the outer product.  The value is that of
    ``np.transpose(np.tensordot(a, b, axes), perm)`` up to the order of its
    sums, from BLAS calls planned once per shapes, axes, ``perm`` and the
    operands' block masks.

    An operand with a mask splits the contraction into block products; only
    those whose two blocks are non-zero run, each one ``np.matmul`` written
    straight into its own block of a result zero-filled where none writes,
    and only when no two write one block and they skip at least
    ``SPLIT_MIN_MACS`` multiply-adds.  Each product, and an unsplit
    contraction, is one GEMM, a product's batched over a block axis where
    its block's axes do not merge into one matrix.  Its larger operand
    (of two of one size, the one that suits the call better) is taken as
    (P, K, Q): its free axes before the contracted ones, the contracted
    ones, its free axes after, where axes of extent 1 may sit anywhere.
    When it is C-contiguous and its contracted axes form that one run, it
    reaches BLAS as a view: one 2-D ``np.dot`` when P or Q is empty,
    otherwise one ``np.matmul`` batched over P.  When they do not, it is
    first copied into that form.  Only the smaller operand is rearranged,
    by ``np.ascontiguousarray`` into (K, N) order, N its free axes in the
    order ``perm`` gives them.  An unsplit result is C-contiguous whenever
    ``perm`` orders it as P+N+Q (or N+P when Q is empty), and a transposed
    view otherwise; a split one is laid out as the unsplit one would be.
    Each adjoint is again one
    permuted contraction, in its operand's axis order, so a sweep through
    it records no ``transpose``.
    """
    ma, mb = _mask_of(a), _mask_of(b)
    tape, (a, b), vals = _operands(a, b)
    axes = tuple([(index(p), index(q)) for p, q in axes])
    if perm is not None:
        perm = tuple(map(index, perm))
    (kernel, plan), grad_a, grad_b, mask = _contract_plan(vals[0].shape, vals[1].shape, axes,
                                                          perm, ma, mb)
    # The rules call the module's contract by name, so a wrapper installed
    # in its place sees the adjoint contractions too.
    return _node(tape, "contract", kernel, vals, (a, b), (
        lambda u: contract(u, b, *grad_a),
        lambda u: contract(a, u, *grad_b),
    ), (plan,), mask)


def _block_products(av, bv, plan):
    # A split contraction: its block products, each one GEMM written
    # straight into its own block of a result laid out as ``buffer`` says,
    # zero where no product writes.  A contraction that is not split is its
    # one GEMM.  The result starts as np.zeros, whose untouched pages of a
    # large array stay unmapped.
    shape, order, fill = plan[0][:3]
    out = np.zeros(shape) if fill else np.empty(shape)
    for gemm, at_a, at_b, at, axes, layout in plan[1]:
        big, small = _gemm_parts(av[at_a], bv[at_b], gemm)
        *xy, o = _product_views(np.ascontiguousarray(big), np.ascontiguousarray(small),
                                out, at, axes, layout)
        np.matmul(*xy, out=o)
    return out if order is None else out.transpose(order)


def _block_products_into(vals, args, out, new):
    # The calls that compute a split contraction into its result buffer
    # ``out``: zeros in the blocks no product writes, then the products,
    # each one's operands copied into ``new`` buffers where
    # np.ascontiguousarray would copy them.
    (_, _, _, zeros), products = args[0][:2]
    calls = [partial(out[at].fill, 0.0) for at in zeros]
    for gemm, at_a, at_b, at, axes, layout in products:
        big, small = _gemm_parts(vals[0][at_a], vals[1][at_b], gemm)
        *xy, o = _product_views(_contiguous(big, new, calls), _contiguous(small, new, calls),
                                out, at, axes, layout)
        calls.append(partial(np.matmul, *xy, out=o))
    return calls


def _product_views(big, small, out, at, axes, layout):
    # The views (x, y, o) of C-contiguous operands and of the block ``at``
    # of ``out`` by which np.matmul(x, y, out=o) computes a block product
    # (see _product_layout).
    x_small, x_shape, x_order, y_shape, y_order, o_shape, o_order = layout
    x, y = (small, big) if x_small else (big, small)
    block = out[at] if axes is None else out[at].transpose(axes)
    return (x.reshape(x_shape).transpose(x_order), y.reshape(y_shape).transpose(y_order),
            block.reshape(o_shape).transpose(o_order))


def _gemm_parts(av, bv, plan):
    # The big and small operands of one GEMM in their (P, K, Q) and (K, N)
    # axis orders, as views.
    a_big, big_axes, _, small_axes = plan[:4]
    big, small = (av, bv) if a_big else (bv, av)
    if big_axes is not None:
        big = big.transpose(big_axes)
    if small_axes is not None:
        small = small.transpose(small_axes)
    return big, small


def _gemm_call(big, small, plan):
    # (function, x, y) of one GEMM on C-contiguous operands: 0 is big @
    # small, 1 small^T @ big^T and 2 small^T @ big, all 2-D, and 3 the
    # matmul of small^T batched over P.  A reshape that would not change a
    # shape is skipped, as it costs as much as a small copy.
    big_2d, _, small_2d, gemm = plan[2:6]
    if big.shape != big_2d:
        big = big.reshape(big_2d)
    if small.shape != small_2d:
        small = small.reshape(small_2d)
    if gemm == 0:
        return np.dot, big, small
    if gemm == 1:
        return np.dot, small.T, big.T
    return (np.dot if gemm == 2 else np.matmul), small.T, big


def _gemm(av, bv, plan):
    # One GEMM by its plan.
    big, small = _gemm_parts(av, bv, plan)
    f, x, y = _gemm_call(np.ascontiguousarray(big), np.ascontiguousarray(small), plan)
    val = f(x, y)
    shape, perm = plan[6:]
    if val.shape != shape:
        val = val.reshape(shape)
    return val if perm is None else val.transpose(perm)


def _gemm_into(vals, args, out, new):
    # The calls of one GEMM whose raw result is ``out``, operands copied as
    # in _block_products_into.
    calls = []
    big, small = _gemm_parts(*vals, args[0])
    f, x, y = _gemm_call(_contiguous(big, new, calls), _contiguous(small, new, calls), args[0])
    calls.append(partial(f, x, y, out=out))
    return calls


def _contiguous(a, new, calls):
    # ``a`` when np.ascontiguousarray would return it as it is; otherwise a
    # ``new`` buffer that a call appended to ``calls`` copies it into.
    if a.ndim and a.flags.c_contiguous:
        return a
    buf = new(a.shape or (1,))
    calls.append(partial(np.copyto, buf, a))
    return buf


def index_array(idx):
    """``idx`` as an intp array; raises ``IndexError`` if an entry is not an
    integer value (a float index would otherwise be truncated), naming the
    first such mode of an (N, d) array."""
    arr = np.asarray(idx)
    if arr.dtype.kind in "iu":
        return arr.astype(np.intp, copy=False)
    with np.errstate(invalid="ignore"):
        out = arr.astype(np.intp, copy=False)
    bad = out != arr
    if bad.any():
        where = f" in mode {int(np.argmax(bad.any(axis=0)))}" if arr.ndim == 2 else ""
        raise IndexError(f"index array has non-integral entries{where}")
    return out


def index_vector(idx, n, where):
    """``idx`` as an intp vector of indices into a mode of size ``n``.

    Raises ``IndexError`` naming ``where`` for an entry that is not an
    integer (:func:`index_array`) or lies outside [0, n): a negative index
    is not wrapped.
    """
    idx = index_array(idx)
    if idx.ndim != 1:
        raise DimensionError(f"indices in {where} must form a vector, got shape {idx.shape}")
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"index out of range in {where}: values must lie in [0, {n})")
    return idx


def gather_mode(core, idx):
    """Collect per-sample mode slices of a TT core.

    ``core`` has shape (r_left, n, r_right) and ``idx`` is an int vector of
    length N, values in [0, n); the result has shape (N, r_left, r_right).  It
    is one row ``take`` from the (n, r_left, r_right) transpose of the core, so
    the strided (r_left, N, r_right) fancy-index copy is never made.  The
    validated ``idx`` is a kernel operand.
    """
    tape, (core,), (cv,) = _operands(core)
    if cv.ndim != 3:
        raise DimensionError(f"gather_mode needs an (r_l, n, r_r) core, got shape {cv.shape}")
    n = cv.shape[1]
    idx = index_vector(idx, n, "gather_mode")
    return _node(tape, "gather_mode", _gather_value, (cv, idx), (core,),
                 (lambda u: scatter_mode(u, idx, n),))


def _gather_value(cv, idx):
    return np.take(np.ascontiguousarray(np.transpose(cv, (1, 0, 2))), idx, axis=0)


def scatter_mode(mat, idx, n):
    """Adjoint of :func:`gather_mode`: scatter-add (N, r_l, r_r) slices into
    an (r_l, n, r_r) core.

    It sums by one ``np.bincount`` over ``idx`` per slice entry, so nothing
    of size n * N is formed.  One bincount over flattened (sample, entry)
    bins reads ``mat`` in row order instead of column by column, but building
    those N * r_l * r_r bins costs as much as the sum: completion's AD HVP
    at N = 12,000 (one BLAS thread) ran 13% slower that way.  A column is
    contiguous when ``mat``'s sample axis is innermost, as in a
    :func:`batch_matmul` outer product; ``idx`` is held as in gather_mode.
    """
    tape, (mat,), (mv,) = _operands(mat)
    idx = index_vector(idx, n, "scatter_mode")
    if mv.ndim != 3 or mv.shape[0] != len(idx):
        raise DimensionError(f"scatter_mode needs ({len(idx)}, r_l, r_r) slices, got {mv.shape}")
    return _node(tape, "scatter_mode", _scatter_value, (mv, idx), (mat,),
                 (lambda u: gather_mode(u, idx),), (n,))


def _scatter_value(mv, idx, n):
    count, rl, rr = mv.shape
    cols = mv.reshape(count, rl * rr)  # sizes spelled out: count may be 0
    buf = np.empty((n, rl * rr))
    for j in range(rl * rr):
        buf[:, j] = np.bincount(idx, weights=cols[:, j], minlength=n)
    return np.ascontiguousarray(np.transpose(buf.reshape(n, rl, rr), (1, 0, 2)))


# From this many samples on, a per-sample dot product is one einsum reduction
# instead of numpy's stacked matmul.  The cut sits above the crossover (one
# BLAS thread: einsum wins from 256-512 samples on at r = 5 and 10, e.g. 17.0
# against 23.6 us at N=1024, r=5, and loses below, 6.4 against 2.9 us at N=32;
# at r = 20 the timings cross back and forth between 512 and 2048), so that
# expmach's 32-sample margins keep np.matmul's bits.
_EINSUM_DOT_MIN = 1024


def _batch_matmul_value(a, b):
    # numpy's stacked matmul runs one tiny product per sample.  An outer
    # product (q = 1) is one broadcast multiply, with the same bits, with the
    # sample axis innermost (Fortran order): numpy then runs p * s loops over
    # N samples, not N loops over p * s entries (0.11 against 0.21 ms at
    # N = 12,000, p * s = 10), and scatter_mode reads each column contiguous.
    # A dot product (p = s = 1) over many samples is one einsum reduction;
    # other shapes, and expmach's few margins, stay with np.matmul.
    count, p, q = a.shape
    if q == 1:
        return np.multiply(a, b, order="F")
    if p == 1 and b.shape[2] == 1 and count >= _EINSUM_DOT_MIN:
        return np.einsum("nq,nq->n", a[:, 0, :], b[:, :, 0]).reshape(count, 1, 1)
    return np.matmul(a, b)


def batch_matmul(a, b):
    """Stacked matrix product: (N, p, q) x (N, q, s) -> (N, p, s)."""
    tape, (a, b), vals = _operands(a, b)
    sa, sb = vals[0].shape, vals[1].shape
    if len(sa) != 3 or len(sb) != 3 or sa[0] != sb[0] or sa[2] != sb[1]:
        raise DimensionError(f"batch_matmul shapes incompatible: {sa} x {sb}")
    return _node(tape, "batch_matmul", _batch_matmul_value, vals, (a, b), (
        lambda u: batch_matmul(u, transpose(b, (0, 2, 1))),
        lambda u: batch_matmul(transpose(a, (0, 2, 1)), u),
    ))


class ModeSort:
    """Stable sort of N samples by one mode's index, values in [0, n).

    ``order`` lists the samples in sorted order, ``rank`` is its inverse
    (each sample's sorted position) and ``bounds``, an intp vector, are the
    block offsets: the samples with value ``i`` are
    ``order[bounds[i]:bounds[i + 1]]``.  The three are read-only, so the
    mode ops trust them unchecked.
    """

    __slots__ = ("order", "rank", "bounds")

    def __init__(self, idx, n):
        idx = index_vector(idx, n, "ModeSort")
        self.bounds = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(idx, minlength=n), out=self.bounds[1:])
        # numpy's stable sort is a radix sort for 8- and 16-bit keys.
        self.order = np.argsort(idx.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(idx))
        for a in (self.order, self.rank, self.bounds):
            a.flags.writeable = False

    def reorder(self, want):
        """``(perm, inverse)``: row ``i`` of rows in the sorted order of
        ``want``, another :class:`ModeSort`, or in the samples' own order
        for ``None``, is row ``perm[i]`` of rows in this sort's order."""
        if want is None:
            return self.rank, self.order
        return self.rank[want.order], want.rank[self.order]


def _check_sort(sort, count, n, what):
    # The bounds of ``sort`` once it is known to order the op's ``count``
    # rows, over a mode of size ``n`` unless that is None.
    if not isinstance(sort, ModeSort) or len(sort.order) != count or \
            n is not None and len(sort.bounds) != n + 1:
        raise DimensionError(f"{what} needs a ModeSort of {count} rows"
                             + ("" if n is None else f" over mode size {n}"))
    return sort.bounds


def take_rows(rows, sort, want):
    """``rows``, in the sorted order of ``sort``, moved into that of
    ``want``: another :class:`ModeSort` of the same samples, or ``None``
    for the samples' own order.  The permutation and its inverse
    (:meth:`ModeSort.reorder`) are kernel operands; the adjoint moves rows
    back by the same two vectors."""
    tape, (rows,), (rv,) = _operands(rows)
    for s in (sort, want or sort):  # want, when given, orders the same rows
        _check_sort(s, len(rv) if rv.ndim else -1, None, "take_rows")
    return _take_rows(tape, rows, rv, *sort.reorder(want))


def _take_rows(tape, rows, rv, perm, inverse):
    # The rule reuses the node's own vectors, so a sweep computes no
    # permutation.
    def rule(u):
        tape, (u,), (uv,) = _operands(u)
        return _take_rows(tape, u, uv, inverse, perm)

    return _node(tape, "take_rows", np.take, (rv, perm), (rows,), (rule,), (0,))


def _mode_matmul_value(rows, core, bounds):
    slices = np.ascontiguousarray(np.transpose(core, (1, 0, 2)))  # (n, r_l, r_r)
    b = bounds.tolist()
    buf = np.empty((b[-1], core.shape[2]))
    for i in range(len(b) - 1):
        if b[i] < b[i + 1]:
            np.matmul(rows[b[i]:b[i + 1]], slices[i], out=buf[b[i]:b[i + 1]])
    return buf


def _mode_outer_value(rows, u, bounds):
    b = bounds.tolist()
    buf = np.zeros((len(b) - 1, rows.shape[1], u.shape[1]))
    for i in range(len(b) - 1):
        if b[i] < b[i + 1]:
            np.matmul(rows[b[i]:b[i + 1]].T, u[b[i]:b[i + 1]], out=buf[i])
    return np.ascontiguousarray(np.transpose(buf, (1, 0, 2)))


def mode_matmul(rows, core, sort):
    """Per-sample row times mode slice: ``out[s] = rows[s] @ core[:, i, :]``
    for the rows ``s`` in ``sort.bounds[i]:sort.bounds[i + 1]``.

    ``rows`` is (N, r_left) in the sorted order of ``sort``, a
    :class:`ModeSort` of the samples' index in this mode, and ``core`` is
    (r_left, n, r_right); the result is (N, r_right), in the same order.
    It runs one matrix product per mode value on the contiguous block of
    that value's rows, so nothing of size N * r_left * r_right is formed.
    """
    tape, (rows, core), (rv, cv) = _operands(rows, core)
    if rv.ndim != 2 or cv.ndim != 3 or rv.shape[1] != cv.shape[0]:
        raise DimensionError(f"mode_matmul shapes incompatible: {rv.shape} x {cv.shape}")
    bounds = _check_sort(sort, rv.shape[0], cv.shape[1], "mode_matmul")
    return _node(tape, "mode_matmul", _mode_matmul_value, (rv, cv, bounds), (rows, core), (
        lambda u: mode_matmul(u, transpose(core, (2, 1, 0)), sort),
        lambda u: mode_outer(rows, u, sort),
    ))


def mode_outer(rows, u, sort):
    """Adjoint of :func:`mode_matmul` in its core: the (r_left, n, r_right)
    core whose slice ``i`` is the sum of ``outer(rows[s], u[s])`` over the
    rows ``s`` in ``sort.bounds[i]:sort.bounds[i + 1]``.

    ``rows`` and ``u`` come in the sorted order of ``sort``, as for
    :func:`mode_matmul`.  One matrix product per mode value; a value that
    never occurs leaves a zero slice.
    """
    tape, (rows, u), (rv, uv) = _operands(rows, u)
    if rv.ndim != 2 or uv.ndim != 2 or rv.shape[0] != uv.shape[0]:
        raise DimensionError(f"mode_outer shapes incompatible: {rv.shape} and {uv.shape}")
    bounds = _check_sort(sort, rv.shape[0], None, "mode_outer")
    return _node(tape, "mode_outer", _mode_outer_value, (rv, uv, bounds), (rows, u), (
        lambda w: mode_matmul(u, transpose(w, (2, 1, 0)), sort),
        lambda w: mode_matmul(rows, w, sort),
    ))


# ---------------------------------------------------------------------------
# whole-call replays (see the module docstring); while a call is recorded,
# _node hands every kernel call to its _Recorder.

# The schedules, and the keys seen, kept per owner: the oldest of each is
# dropped beyond this many.  A key whose recording read a mask from a value
# keeps None, and its calls stay eager.
SCHEDULES_PER_PROGRAM = 8

_schedules = weakref.WeakKeyDictionary()

# Steps run by replayed schedules, per op name, the forward kernels included;
# an eager call's kernels are calls of the ops themselves and are not
# counted here.
replayed = Counter()


class _State(threading.local):
    recorder = None
    sweeping = 0  # the number of reverse sweeps running
    arena = None  # this thread's replay arena: a float64 buffer
    bound = None  # the schedules bound to it, weakly, each to its calls


_state = _State()


def thread_arena_bytes():
    """The size in bytes of the calling thread's replay arena: the largest
    :attr:`Schedule.arena_bytes` among the schedules the thread has run, or
    0 before its first replay."""
    return 0 if _state.arena is None else _state.arena.nbytes


def _ufunc_into(ufunc):
    return lambda vals, args, out, new: [partial(ufunc, *vals, out=out)]


def _add_n_into(vals, args, out, new):
    if len(vals) == 1:
        return [partial(np.copyto, out, vals[0])]
    return [partial(np.add, vals[0], vals[1], out=out),
            *[partial(np.add, out, v, out=out) for v in vals[2:]]]


def _block_core_into(vals, args, out, new):
    return [partial(out.fill, 0.0),
            *[partial(np.copyto, out[at], v) for v, at in zip(vals, args[1])]]


# The kernels a replay runs into a planned buffer, each by a function of
# (vals, args, out, new) that returns the calls computing kernel(*vals,
# *args) into ``out``, the array the eager result is or views, with the
# copies np.ascontiguousarray would make written into new(shape) buffers.
_INTO = {
    _gemm: _gemm_into,
    _block_products: _block_products_into,
    _add_n_value: _add_n_into,
    _block_core_value: _block_core_into,
    **{f: _ufunc_into(f) for f in (np.add, np.subtract, np.multiply, np.divide, np.negative,
                                   np.exp, np.log, np.sin, np.cos)},
}

# Kernels whose result views their operand, so a replay builds it once.
_VIEWS = (np.transpose, np.reshape, getitem)

# How a replay runs a step: into its planned buffer from operands bound
# once (_FIXED) or read at run time (_INTO_NOW); as a view or pass-through
# of operands bound once (_ALIAS); or by the kernel on values read and
# stored at run time (_HEAP).
_FIXED, _INTO_NOW, _ALIAS, _HEAP = range(4)


class Schedule:
    """The kernels that a whole call of a static program ran, forward pass
    included (see :func:`_whole_call`), planned onto an arena.

    Each step's value lives in a planned buffer of the arena, is a view of
    one, or, for a kernel with no ``out=`` form (``scatter_mode``'s
    bincounts, gathers, ``batch_matmul``, reductions), is allocated by the
    kernel on each run.  The buffers are placed by interval colouring of
    their lifetimes, a view extending its base's, in ``arena_bytes``
    bytes.  A thread runs every schedule on one arena of its own, as large
    as the largest schedule it has run (:func:`thread_arena_bytes`), and
    binds each schedule to it once: its operand and output views, and one
    call per kernel, a GEMM one ``np.dot`` or ``np.matmul`` with ``out=``.
    A run copies the sources in and the results out, so no caller holds
    arena memory.  ``kernels`` counts the steps per op name, added to
    :data:`replayed` by each run.  ``peak_live_bytes`` is the largest total
    of the planned step outputs a replay holds at once: a step's output and
    inputs are held while it runs, and an output is dropped after the step
    that reads it last (a result is kept).  A view, a check's pass-through
    and the output of a kernel with no ``out=`` form count 0, so the arena,
    which also holds the sources and the copies of GEMM operands, is never
    smaller.
    """

    __slots__ = ("steps", "slots", "sources", "buffers", "heap", "results", "zero_sources",
                 "kernels", "peak_live_bytes", "arena_bytes", "_stats", "__weakref__")

    def __init__(self, steps, slots, sources, buffers, heap, results, zero_sources, stats,
                 peak_live_bytes):
        self.steps = steps
        self.slots = slots
        self.sources = sources
        self.buffers = buffers
        self.heap = heap
        self.results = results
        self.zero_sources = zero_sources
        self._stats = stats
        self.kernels = Counter({op: op_stats["steps"] for op, op_stats in stats.items()})
        self.peak_live_bytes = peak_live_bytes
        self.arena_bytes = max((at + nbytes for at, nbytes, *_ in buffers), default=0)

    def stats(self):
        """Per op name, counted when the schedule was recorded: ``steps``,
        the kernel calls an eager call runs, and ``bytes``, the bytes of
        their outputs; for ``contract`` also ``macs``, the multiply-adds its
        block products run, and ``dense_macs``, those of the same
        contractions run whole.  The peak of the bytes a replay holds is
        :attr:`peak_live_bytes`, its arena :attr:`arena_bytes`."""
        return {op: dict(op_stats) for op, op_stats in self._stats.items()}

    def run(self, sources):
        """The recorded results for the arrays ``sources``."""
        state = _state
        if state.arena is None or state.arena.nbytes < self.arena_bytes:
            state.arena, state.bound = _aligned(self.arena_bytes), weakref.WeakKeyDictionary()
        bound = state.bound.get(self)
        if bound is None:
            bound = state.bound[self] = self._bind(state.arena)
        vals, calls, copies = bound
        for j, (src, dst) in enumerate(zip(sources, copies)):
            if dst is None:
                vals[j] = src
            else:
                np.copyto(dst, src)
        try:
            for call in calls:
                call()
            out = [np.copy(vals[i]) if copy else vals[i] for i, copy in self.results]
        finally:
            for i in self.heap:
                vals[i] = None
        replayed.update(self.kernels)
        return out

    def _bind(self, arena):
        # (values, calls, source buffers) of the schedule on ``arena``: the
        # slot list with every value bound once in place, the calls of a
        # run, and the buffer each source is copied into (None: used as
        # given).
        bufs = [np.ndarray(shape, float, arena, at, strides)
                for at, _, shape, strides in self.buffers]
        vals = list(self.slots)
        copies = [None if b is None else bufs[b] for b in self.sources]
        for j, dst in enumerate(copies):
            if dst is not None:
                vals[j] = dst
        calls = []
        for form, kernel, ins, args, out, extra, dead in self.steps:
            if form == _HEAP:
                calls.append(partial(_heap_step, vals, kernel, _getter(ins), args, out))
            elif form == _ALIAS:
                views = [vals[i] for i in ins]
                if extra is None:
                    vals[out] = kernel(*views, *args)
                else:
                    vals[out] = views[extra]
                    calls.append(partial(kernel, *views, *args))
            else:
                b, temps, view = extra
                raw = bufs[b]
                vals[out] = raw if view is None else np.ndarray(view[0], float, raw, *view[1:])
                if form == _FIXED:
                    temps = iter([bufs[t] for t in temps])
                    calls += _INTO[kernel]([vals[i] for i in ins], args, raw,
                                           lambda shape: next(temps))
                else:
                    calls.append(partial(_into_now, _INTO[kernel], vals, _getter(ins), args, raw))
            if dead:
                calls.append(partial(_drop, vals, dead))
        return vals, calls, copies


def _heap_step(vals, kernel, get, args, out):
    vals[out] = kernel(*get(vals), *args)


def _into_now(into, vals, get, args, out):
    for call in into(get(vals), args, out, np.empty):
        call()


def _drop(vals, slots):
    for i in slots:
        vals[i] = None


def _aligned(nbytes):
    # An uninitialised float64 buffer of ``nbytes`` bytes, a multiple of
    # 64, at a 64-byte boundary.
    raw = np.empty(nbytes + 64, np.uint8)
    at = -raw.ctypes.data % 64
    return raw[at:at + nbytes].view(float)


def _plannable(a):
    # Whether ``a`` can live in an arena buffer: a float64 array of at least
    # one entry and axis whose entries fill its memory, in some axis order.
    if type(a) is not np.ndarray or a.dtype != float or not a.ndim or not a.size:
        return False
    step = 8
    for s, n in sorted((s, n) for s, n in zip(a.strides, a.shape) if n != 1):
        if s != step:
            return False
        step *= n
    return True


def _colour(buffers):
    # Offsets for ``buffers``, [first step, last step, shape, strides] each,
    # every one rounded up to 64 bytes, so that no two whose lifetimes meet
    # overlap: greedy by size, each buffer, largest first, takes the lowest
    # offset clear of those placed before it whose lifetimes meet its own.
    sizes = [max(64, -(-8 * math.prod(shape) // 64) * 64) for _, _, shape, _ in buffers]
    offsets = [0] * len(buffers)
    placed = []
    for i in sorted(range(len(buffers)), key=lambda i: (-sizes[i], buffers[i][0])):
        first, last = buffers[i][:2]
        at = 0
        for lo, hi in sorted((offsets[j], offsets[j] + sizes[j]) for j in placed
                             if buffers[j][0] <= last and first <= buffers[j][1]):
            if lo >= at + sizes[i]:
                break
            at = max(at, hi)
        offsets[i] = at
        placed.append(i)
    return [(at, size, shape, strides)
            for at, size, (_, _, shape, strides) in zip(offsets, sizes, buffers)]


class _Recorder:
    # Names each array the kernels of a recorded call read or write, by
    # identity: a source (source j is slot j), an earlier step's output
    # (forgotten when the array dies, so a recycled id is never misread), or
    # else a literal, which the schedule keeps read-only: a constant of the
    # program, or an array a rule made from shapes alone.  A kernel call
    # that returns a source, as a kept block core's node does, is no step:
    # each replay reads that source from its own call.  Each step gets its
    # replay form as it is logged, from the arrays it read and wrote: the
    # buffers it needs ([first step, last step, shape, strides]), which
    # slots a replay binds once (``fixed``) and the buffers each slot's
    # memory lies in (``roots``).  ``static`` turns false when the call
    # reads a block mask from a value a replay would compute afresh, and
    # ``zero_sources`` lists the sources it reads one from.

    def __init__(self, sources):
        self.names = {id(a): j for j, a in enumerate(sources)}  # id of a live array -> its slot
        self.inputs = set(self.names)
        self.alive = {}  # id -> weak reference to a step's output, or a scalar output
        self.literals = {}  # slot -> array
        self.steps = []
        self.count = len(sources)
        self.static = True
        self.zero_sources = set()
        self.buffers = []
        self.sources = [self._buffer(a.shape, a.strides, -1) if _plannable(a) else None
                        for a in sources]
        self.fixed = {j: b is not None for j, b in enumerate(self.sources)}
        self.roots = {j: () if b is None else (b,) for j, b in enumerate(self.sources)}

    def _new(self):
        self.count += 1
        return self.count - 1

    def _name(self, a):
        # The slot of ``a``: its name, or a new literal.
        s = self.names.get(id(a))
        if s is None:
            s = self.names[id(a)] = self._new()
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
            self.literals[s] = a
            self.fixed[s], self.roots[s] = True, ()
        return s

    def _buffer(self, shape, strides, n):
        self.buffers.append([n, n, shape, strides])
        return len(self.buffers) - 1

    def value_mask(self, vals):
        # A block mask was read from the values ``vals``, zero: a replay
        # would freeze it unless each is a constant of the program, or a
        # source that the replay checks is zero again.
        for v in vals:
            s = self.names.get(id(v))
            if s is not None and s < len(self.sources):
                self.zero_sources.add(s)
            elif s is not None and s not in self.literals:
                self.static = False

    def step(self, op, kernel, vals, args, val):
        key = id(val)
        if key in self.inputs:
            return
        ins = tuple([self._name(v) for v in vals])
        # A pass-through kernel (a check) writes no bytes.
        through = next((j for j, v in enumerate(vals) if v is val), None)
        nbytes = 0 if through is not None else val.nbytes
        n = len(self.steps)
        out = self.names[key] = self._new()
        try:
            self.alive[key] = weakref.ref(val, lambda _, key=key: self.names.pop(key, None))
        except TypeError:  # a numpy scalar: held, it is small
            self.alive[key] = val
        fixed = all(self.fixed[s] for s in ins)
        shared = [s for v, s in zip(vals, ins) if type(val) is np.ndarray
                  and isinstance(v, np.ndarray) and np.may_share_memory(v, val)]
        roots = tuple(sorted({b for s in shared for b in self.roots[s]}))
        raw = val if type(val) is not np.ndarray or val.base is None else val.base
        if kernel in _INTO and not shared and type(val) is np.ndarray and raw.base is None \
                and _plannable(raw):
            b = self._buffer(raw.shape, raw.strides, n)
            view = None if val is raw else (
                val.shape, val.__array_interface__["data"][0] - raw.__array_interface__["data"][0],
                val.strides)
            temps = []

            def new(shape):
                buf = np.empty(shape)
                temps.append(self._buffer(shape, buf.strides, n))
                return buf

            if fixed:
                _INTO[kernel](list(vals), args, raw, new)
            form, extra = _FIXED if fixed else _INTO_NOW, (b, tuple(temps), view)
            fixed, roots = True, (b,)
        elif fixed and (through is not None or kernel in _VIEWS and shared):
            form, extra = _ALIAS, through
        else:
            form, extra, fixed = _HEAP, None, False
        self.fixed[out], self.roots[out] = fixed, roots
        self.steps.append((op, kernel, ins, args, out, nbytes, form, extra))

    def schedule(self, results):
        """The :class:`Schedule` of the steps, returning ``results``, each
        runtime value dropped after the step that reads it last and each
        buffer planned for as long as a value in it is read."""
        results = [self._name(r) for r in results]
        self.alive.clear()
        last = {}
        stats = {}
        for n, (op, kernel, ins, args, out, nbytes, *_) in enumerate(self.steps):
            for s in ins + (out,):
                last[s] = n
            op_stats = stats.setdefault(op, Counter())
            op_stats.update(steps=1, bytes=nbytes)
            if op == "contract":
                op_stats.update(_contract_macs(kernel, args[0]))
        dead = [[] for _ in self.steps]
        for s, n in last.items():
            if s not in results:
                dead[n].append(s)
        peak = self._peak_live_bytes(dead)
        for s in results:
            last[s] = len(self.steps)
        for s, roots in self.roots.items():
            for b in roots:
                self.buffers[b][1] = max(self.buffers[b][1], last.get(s, -1))
        slots = [None] * self.count
        for s, a in self.literals.items():
            slots[s] = a
        steps = [(form, kernel, ins, args, out, extra,
                  tuple([s for s in gone if not self.fixed[s]]))
                 for (_, kernel, ins, args, out, _, form, extra), gone in zip(self.steps, dead)]
        return Schedule(steps, slots, self.sources, _colour(self.buffers),
                        tuple([s for s in range(self.count) if not self.fixed[s]]),
                        tuple([(s, bool(self.roots[s])) for s in results]),
                        tuple(sorted(self.zero_sources)), stats, peak)

    def _peak_live_bytes(self, dead):
        # The largest total of planned step outputs held at once, when the
        # outputs ``dead[n]`` are dropped after step n.
        size = {out: nbytes if form in (_FIXED, _INTO_NOW) else 0
                for *_, out, nbytes, form, _ in self.steps}
        live = peak = 0
        for step, gone in zip(self.steps, dead):
            live += size[step[4]]
            peak = max(peak, live)
            live -= sum(size.get(s, 0) for s in gone)
        return peak


def _contract_macs(kernel, plan):
    # The multiply-adds a contract step runs, and those of its whole GEMM.
    if kernel is _block_products:
        return {"macs": plan[2], "dense_macs": plan[3]}
    _, _, big_2d, _, small_2d, *_ = plan
    macs = math.prod(big_2d) * small_2d[1]
    return {"macs": macs, "dense_macs": macs}


def _getter(ins):
    # The inputs of a step from the slot list, as a sequence, by one C call.
    return itemgetter(*ins) if len(ins) > 1 else itemgetter(slice(ins[0], ins[0] + 1))


def _whole_call(owner, tag, sources, call):
    """``call()``, the list of arrays one call of a static program computes
    from the arrays ``sources``: eager the first time, recorded the second
    and replayed after.

    A static program is one whose kernels and constants are fixed by
    ``tag`` and the shapes, strides and masks of ``sources``, so a call
    needs no tape to be replayed: ``call`` builds its tape from the sources
    and runs the forward pass and its sweeps.  The schedule is kept for
    ``owner`` under that key.  The first call with a key runs eagerly and
    is only remembered, so a program made for one call pays nothing for
    recording; the second records every kernel ``call`` runs, the forward
    pass's included, with the sources as its only inputs and every other
    array a kernel reads kept as a literal; later calls run those kernels
    on their own sources, building no tape or ``Var``, on the calling
    thread's arena (:class:`Schedule`).  The results are bit-identical to
    an eager call and may be read-only.  A value check made by
    :func:`_checked` is a step, so a replay raises where the eager call
    would.  A forward :func:`block_core` part that is zero by value gives a
    block mask that a replay would freeze: when the part is a source, its
    schedule replays only calls where that source is zero again, and runs
    any other eagerly; when the part is computed, the recording keeps no
    schedule, and the key's calls stay eager.  ``call``
    runs eagerly every time when ``owner`` has no weak reference.
    """
    try:
        seen, kept = _schedules.setdefault(owner, ({}, {}))
    except TypeError:
        return call()
    key = (tag, tuple([(a.shape, a.strides, _mask_of(a)) for a in sources]))
    if key in kept:
        schedule = kept[key]
        if schedule is not None and all(_is_zero(sources[j]) for j in schedule.zero_sources):
            return schedule.run(sources)
        return call()
    if key not in seen:
        _keep(seen, key, None)
        return call()
    recorder = _state.recorder = _Recorder(sources)
    try:
        out = call()
        _keep(kept, key, recorder.schedule(out) if recorder.static else None)
    finally:
        _state.recorder = None
        recorder.alive.clear()
    return out


def _checked(a, check):
    # ``a`` itself, once ``check(value)`` has passed its value through (a
    # pass-through kernel that raises on a bad value).  A recording logs the
    # check of a tape value as a step whose output is that value, so a
    # replayed call runs it at the same place and raises as the eager call
    # would; a constant's check passes alike on every call.
    if a.__class__ is not Var:
        check(a)
        return a
    check(a.value)
    recorder = _state.recorder
    if recorder is not None:
        recorder.step("check", check, (a.value,), (), a.value)
    return a


def _keep(kept, key, value):
    while len(kept) >= SCHEDULES_PER_PROGRAM:
        del kept[next(iter(kept))]
    kept[key] = value

