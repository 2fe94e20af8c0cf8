"""Reverse-mode automatic differentiation over dense tensor operations.

Every operation in this module accepts plain ``numpy`` arrays, :class:`Var`
handles or a mix.  It validates and computes its value once, the same way
in every case, and with a :class:`Var` among its operands it also records
a node on that tape, other operands becoming constants.  A node stores its
parents and one adjoint rule per parent; ``rules[i](u)`` maps the node's
adjoint ``u`` to the contribution for ``parents[i]``.  Rules are written in
terms of these operations.  A sweep that returns ``Var``s
(``grad(..., as_vars=True)``) therefore records its adjoints as nodes, and
its result can be differentiated again (nested AD); a value-only sweep (the
default) mutes the tape while it runs, so its rules compute plain arrays
and append nothing.

The mode operations take a TT core's slices per mode value: ``gather_mode``
and ``scatter_mode`` move whole (r_left, r_right) slices per sample, while
``mode_matmul`` and ``mode_outer`` apply them to, or build them from,
per-sample (N, r) rows with one matrix product per mode value, so no
per-sample slice is ever stored.  Their :class:`ModeGroups` says in which
order of the samples the rows come in and go out: rows come in sorted by
the op's own mode, and a sweep that hands them out sorted by the mode they
go through next (:meth:`ModeSort.groups`) permutes them once per op.

Constants never receive derivative flow: a node is differentiable exactly
when one of its parents is, and ``grad`` calls a rule only for a
differentiable parent, so a constant operand costs no adjoint work.  The
``stop_gradient`` operation records a non-differentiable node without
rules, which freezes its argument at every nesting level.
"""

from collections import defaultdict

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
    "ModeGroups",
    "mode_matmul",
    "mode_outer",
]

class Var:
    """Handle to a tape node: cached primal value, parents and one adjoint
    rule per parent.

    ``diff`` is set once, here: a node is differentiable when one of its
    parents is, unless the caller says otherwise (inputs, constants and
    ``stop_gradient``).
    """

    __slots__ = ("tape", "value", "op", "parents", "rules", "diff", "index")

    # Keep numpy from consuming Vars in its own ufunc dispatch.
    __array_ufunc__ = None

    def __init__(self, tape, value, op, parents=(), rules=(), diff=None):
        self.tape = tape
        self.value = value
        self.op = op
        self.parents = parents
        self.rules = rules
        if diff is None:
            diff = False
            for p in parents:
                diff = diff or p.diff
        self.diff = diff
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

    Creation order is a topological order (a node's parents always precede
    it), and a recording reverse sweep appends its own nodes at the end, so
    a tape that has been swept once can be swept again to differentiate
    through the first sweep.  While ``recording`` is false, operations read
    this tape's ``Var``s as their plain values and record nothing.
    """

    def __init__(self):
        self.nodes = []
        self.recording = True

    def __len__(self):
        return len(self.nodes)

    def input(self, value) -> Var:
        """Register a differentiable input (a leaf of the graph)."""
        arr = np.asarray(value, dtype=np.float64)
        return Var(self, arr, "input", diff=True)

    def const(self, value) -> Var:
        """Register a constant: derivative flow stops here."""
        arr = np.asarray(value, dtype=np.float64)
        return Var(self, arr, "const", diff=False)

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
    return a scalar (a 0-d :class:`Var`, or a plain number for constant
    programs).
    """
    tape = Tape()
    arg_vars = [tape.input(v) for v in inputs]
    out = program(*arg_vars)
    if not isinstance(out, Var):
        out = tape.const(out)
    if out.value.shape != ():
        raise UnsupportedOperationError(
            f"recorded program must return a scalar, got shape {out.value.shape}"
        )
    return tape, out


def grad(tape, output, wrt, as_vars=False):
    """Derivatives of a scalar ``output`` with respect to tape inputs.

    The sweep walks nodes in decreasing creation index and calls each
    node's adjoint rule for every differentiable parent; this is the only
    place a parent is skipped.  With ``as_vars=True`` the rules emit their
    computations as new nodes on the same tape, so the returned gradients
    can be differentiated again.  With the default ``as_vars=False`` the
    sweep is value-only: the tape stops recording until it returns (also
    when a rule raises), the rules compute plain ndarrays, the tape gains no
    node and those arrays are returned.
    """
    if not isinstance(output, Var) or output.tape is not tape:
        raise InvalidVariableError("output does not belong to the given tape")
    if output.value.shape != ():
        raise InvalidVariableError("grad requires a scalar output")
    for w in wrt:
        if not isinstance(w, Var) or w.tape is not tape or w.op != "input":
            raise InvalidVariableError("wrt variables must be inputs of the tape")

    recording = tape.recording
    tape.recording = recording and bool(as_vars)
    # The seed and the zero gradients: const Vars on a recording tape.
    lift = tape.const if tape.recording else np.asarray
    try:
        wanted = {w.index for w in wrt}
        results = {}
        contribs = defaultdict(list, {output.index: [lift(np.ones(()))]})
        for i in range(output.index, -1, -1):
            lst = contribs.pop(i, None)
            if lst is None:
                continue
            node = tape.nodes[i]
            adj = lst[0] if len(lst) == 1 else add_n(lst)
            if i in wanted:
                results[i] = adj
            for parent, rule in zip(node.parents, node.rules):
                if parent.diff:
                    contribs[parent.index].append(rule(adj))
        return [results[w.index] if w.index in results else lift(np.zeros(w.value.shape))
                for w in wrt]
    finally:
        tape.recording = recording


# ---------------------------------------------------------------------------
# operands
#
# Every op lifts its operands once, through one of the three helpers below,
# which return the tape (None off a tape), the operands and their float64
# values.  The op validates and computes on those values, so it does both
# the same way on and off a tape, and records a node only when there is one.
# A Var whose tape is not recording (a value-only sweep) counts as its value.


def _operand(a):
    # (tape, a, a's value).
    if isinstance(a, Var):
        if a.tape.recording:
            return a.tape, a, a.value
        a = a.value
    a = np.asarray(a, dtype=np.float64)
    return None, a, a


def _operands(a, b):
    # (tape, a, b, a's value, b's value); beside a Var, a plain operand is
    # lifted onto its tape as a constant.
    tape, a, av = _operand(a)
    tape_b, b, bv = _operand(b)
    if tape is None:
        if tape_b is not None:
            tape = tape_b
            a = tape.const(av)
    elif tape_b is None:
        b = tape.const(bv)
    elif tape_b is not tape:
        raise InvalidVariableError("operands live on different tapes")
    return tape, a, b, av, bv


def _operand_list(parts):
    # (tape, operands, values) of a list of operands, lifted as by _operands.
    lifted = [_operand(p) for p in parts]
    tape = None
    for t, _, _ in lifted:
        if t is not None:
            if tape is None:
                tape = t
            elif t is not tape:
                raise InvalidVariableError("operands live on different tapes")
    vals = [v for _, _, v in lifted]
    if tape is None:
        return None, vals, vals
    return tape, [p if t is not None else tape.const(v) for t, p, v in lifted], vals


def _node(tape, val, op, parents, rules):
    # An op's result: its value off a tape, a recorded node on one.
    return val if tape is None else Var(tape, val, op, parents, rules)


def _unbroadcast(g, shape):
    # Elementwise ops allow mixing a scalar with a tensor; fold the gradient
    # of the scalar operand back down.
    if g.shape != shape and shape == ():
        return reduce_sum(g)
    return g


def add_n(parts):
    """Sum of same-shaped terms (used for adjoint accumulation)."""
    tape, parts, vals = _operand_list(parts)
    if not vals:
        raise DimensionError("add_n needs at least one term, got shape (0,)")
    val = vals[0].copy()
    for v in vals[1:]:
        if v.shape != val.shape:
            raise DimensionError(f"add_n term shapes differ: {val.shape} vs {v.shape}")
        val += v
    return _node(tape, val, "add_n", tuple(parts), (lambda u: u,) * len(parts))


def _binary(name, fwd, rule_a, rule_b):
    # rule_x(u, a, b, out) is the adjoint for one operand before the
    # scalar-broadcast fold.
    def op(a, b):
        tape, a, b, av, bv = _operands(a, b)
        sa, sb = av.shape, bv.shape
        if sa != sb and sa != () and sb != ():
            raise DimensionError(f"{name}: elementwise shapes differ: {sa} vs {sb}")
        out = _node(tape, fwd(av, bv), name, (a, b), (
            lambda u: _unbroadcast(rule_a(u, a, b, out), a.value.shape),
            lambda u: _unbroadcast(rule_b(u, a, b, out), b.value.shape),
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
        tape, a, av = _operand(a)
        out = _node(tape, fwd(av), name, (a,), (lambda u: rule(u, a, out),))
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
    """Identity in value; blocks derivative flow at every nesting level."""
    tape, a, av = _operand(a)
    return av if tape is None else Var(tape, av, "stop_gradient", (a,), diff=False)


def reshape(a, shape):
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    else:
        shape = tuple(int(s) for s in shape)
    tape, a, av = _operand(a)
    old = av.shape
    return _node(tape, av.reshape(shape), "reshape", (a,), (lambda u: reshape(u, old),))


def transpose(a, perm):
    tape, a, av = _operand(a)
    perm = tuple(perm)
    return _node(tape, np.transpose(av, perm), "transpose", (a,),
                 (lambda u: transpose(u, np.argsort([p % len(perm) for p in perm])),))


def concat(parts, axis):
    tape, parts, vals = _operand_list(parts)
    val = np.concatenate(vals, axis=axis)
    if tape is None:
        return val
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])
    return Var(tape, val, "concat", tuple(parts), tuple(
        lambda u, lo=int(lo), hi=int(hi): slice_along(u, axis, lo, hi)
        for lo, hi in zip(offsets[:-1], offsets[1:])
    ))


def slice_along(a, axis, start, stop):
    """Contiguous slice ``a[..., start:stop, ...]`` along one axis."""
    tape, a, av = _operand(a)
    axis = range(av.ndim)[axis]  # as in contract: no axis is wrapped round
    extent = av.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise DimensionError(f"slice [{start}:{stop}] out of range for extent {extent}")

    def rule(u):
        before = list(a.value.shape)
        before[axis] = start
        after = list(a.value.shape)
        after[axis] = extent - stop
        parts = []
        if start > 0:
            parts.append(np.zeros(before))
        parts.append(u)
        if extent - stop > 0:
            parts.append(np.zeros(after))
        return concat(parts, axis) if len(parts) > 1 else u

    return _node(tape, av[(slice(None),) * axis + (slice(start, stop),)], "slice", (a,), (rule,))


def reduce_sum(a, axes=None):
    tape, a, av = _operand(a)
    if axes is None:
        return _node(tape, np.sum(av), "sum", (a,),
                     (lambda u: mul(u, np.ones(a.value.shape)),))

    axes = sorted(range(av.ndim)[ax] for ax in axes)  # as in contract: no axis is wrapped round

    def rule(u):
        ones = np.ones(tuple(a.value.shape[ax] for ax in axes))
        outer = contract(u, ones, [])  # kept axes then summed axes
        nd = a.value.ndim
        perm = [0] * nd
        for pos, ax in enumerate([i for i in range(nd) if i not in axes] + axes):
            perm[ax] = pos
        return transpose(outer, perm)

    return _node(tape, np.sum(av, axis=tuple(axes)), "sum", (a,), (rule,))


def _place_axes(g, targets):
    # Transpose g so that its axis j becomes axis targets[j].
    perm = [0] * len(targets)
    for j, t in enumerate(targets):
        perm[t] = j
    return transpose(g, perm) if perm != list(range(len(perm))) else g


def _contract_grad_a(u, a, b, axes):
    ca = [p for p, _ in axes]
    cb = [q for _, q in axes]
    fa = [i for i in range(a.value.ndim) if i not in ca]
    fb = [i for i in range(b.value.ndim) if i not in cb]
    g = contract(u, b, [(len(fa) + j, fb[j]) for j in range(len(fb))])
    # g axes: free-of-a, then contracted axes of b in increasing order.
    return _place_axes(g, fa + [ca[cb.index(q)] for q in sorted(cb)])


def _contract_grad_b(u, a, b, axes):
    ca = [p for p, _ in axes]
    cb = [q for _, q in axes]
    fa = [i for i in range(a.value.ndim) if i not in ca]
    fb = [i for i in range(b.value.ndim) if i not in cb]
    g = contract(a, u, [(fa[i], i) for i in range(len(fa))])
    # g axes: contracted axes of a in increasing order, then free-of-b.
    return _place_axes(g, [cb[ca.index(p)] for p in sorted(ca)] + fb)


def contract(a, b, axes):
    """Tensor contraction over ``(axis_of_a, axis_of_b)`` pairs.

    Result axes are the free axes of ``a`` followed by the free axes of
    ``b``.  An empty ``axes`` list is the outer product.
    """
    tape, a, b, av, bv = _operands(a, b)
    sa, sb = av.shape, bv.shape
    # range(n)[p] maps p in [-n, n) to [0, n) and raises IndexError for any other p.
    axes = [(range(len(sa))[p], range(len(sb))[q]) for p, q in axes]
    for p, q in axes:
        if sa[p] != sb[q]:
            raise DimensionError(
                f"contracted extents differ: a.shape[{p}]={sa[p]} vs b.shape[{q}]={sb[q]}"
            )
    val = np.tensordot(av, bv, axes=([p for p, _ in axes], [q for _, q in axes]))
    return _node(tape, val, "contract", (a, b), (
        lambda u: _contract_grad_a(u, a, b, axes),
        lambda u: _contract_grad_b(u, a, b, axes),
    ))


def index_array(idx):
    """``idx`` as an intp array; raises ``IndexError`` if an entry is not an
    integer value (a float index would otherwise be truncated), naming the
    first such mode of an (N, d) array."""
    arr = np.asarray(idx)
    with np.errstate(invalid="ignore"):
        out = arr.astype(np.intp, copy=False)
    if arr.dtype.kind not in "iu":
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
    the strided (r_left, N, r_right) fancy-index copy is never made.
    """
    tape, core, cv = _operand(core)
    if cv.ndim != 3:
        raise DimensionError(f"gather_mode needs an (r_l, n, r_r) core, got shape {cv.shape}")
    n = cv.shape[1]
    idx = index_vector(idx, n, "gather_mode")
    val = np.take(np.ascontiguousarray(np.transpose(cv, (1, 0, 2))), idx, axis=0)
    return _node(tape, val, "gather_mode", (core,), (lambda u: scatter_mode(u, idx, n),))


def scatter_mode(mat, idx, n):
    """Adjoint of :func:`gather_mode`: scatter-add (N, r_l, r_r) slices into
    an (r_l, n, r_r) core.

    It is one matrix product ``E @ mat`` with the transient (n, N) one-hot
    selection matrix ``E``, built per call and never recorded; ``E`` is no
    larger than ``mat`` whenever n <= r_l * r_r.
    """
    tape, mat, mv = _operand(mat)
    idx = index_vector(idx, n, "scatter_mode")
    if mv.ndim != 3 or mv.shape[0] != len(idx):
        raise DimensionError(f"scatter_mode needs ({len(idx)}, r_l, r_r) slices, got {mv.shape}")
    count, rl, rr = mv.shape
    onehot = np.zeros((n, count))
    onehot[idx, np.arange(count)] = 1.0
    buf = onehot @ mv.reshape(count, rl * rr)  # sizes spelled out: count may be 0
    val = np.ascontiguousarray(np.transpose(buf.reshape(n, rl, rr), (1, 0, 2)))
    return _node(tape, val, "scatter_mode", (mat,), (lambda u: gather_mode(u, idx),))


def batch_matmul(a, b):
    """Stacked matrix product: (N, p, q) x (N, q, s) -> (N, p, s)."""
    tape, a, b, av, bv = _operands(a, b)
    sa, sb = av.shape, bv.shape
    if len(sa) != 3 or len(sb) != 3 or sa[0] != sb[0] or sa[2] != sb[1]:
        raise DimensionError(f"batch_matmul shapes incompatible: {sa} x {sb}")
    return _node(tape, np.matmul(av, bv), "batch_matmul", (a, b), (
        lambda u: batch_matmul(u, transpose(b, (0, 2, 1))),
        lambda u: batch_matmul(transpose(a, (0, 2, 1)), u),
    ))


class ModeSort:
    """Stable sort of N samples by one mode's index, values in [0, n).

    ``order`` lists the samples in sorted order, ``rank`` is its inverse
    (each sample's sorted position) and ``bounds`` are the block offsets:
    the samples with value ``i`` are ``order[bounds[i]:bounds[i + 1]]``.
    """

    __slots__ = ("order", "rank", "bounds")

    def __init__(self, idx, n):
        idx = np.asarray(idx, dtype=np.intp)
        bounds = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(idx, minlength=n), out=bounds[1:])
        # numpy's stable sort is a radix sort for 8- and 16-bit keys.
        self.order = np.argsort(idx.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(idx))
        self.bounds = bounds.tolist()

    def groups(self, rows_out):
        """The :class:`ModeGroups` for rows that come in this sort's order
        and go out in the order of ``rows_out``: ``None`` for the samples'
        own order or a :class:`ModeSort` whose sorted order the rows follow.

        Passing ``self`` costs no row permutation, so a sweep whose every op
        hands its rows out in the next mode's order permutes once per op.
        """
        back = ModeGroups(self.bounds, _reorder(rows_out, self), None)
        return ModeGroups(self.bounds, None, _reorder(self, rows_out), back)


def _reorder(have, want):
    # Rows in the order of ``want`` are np.take(rows in the order of
    # ``have``, perm); None (sample order) has order and rank the identity.
    if have is want:
        return None
    if have is None:
        return want.order
    if want is None:
        return have.rank
    return have.rank[want.order]


class ModeGroups:
    """Samples grouped by mode value, for :func:`mode_matmul` and
    :func:`mode_outer`.

    The op works on its rows in sorted order: ``bounds`` are the block
    offsets of the mode values there, ``src`` gives the input row of each
    sorted position and ``dst`` the sorted position of each output row,
    either ``None`` when the rows are already in sorted order (no ``take``).
    ``inverse`` is the grouping of the adjoint direction, rows in this
    grouping's output order and out in its input order.  The pair is built
    together, once, by :meth:`ModeSort.groups`.
    """

    __slots__ = ("bounds", "src", "dst", "inverse")

    def __init__(self, bounds, src, dst, inverse=None):
        self.bounds = bounds
        self.src = src
        self.dst = dst
        self.inverse = inverse
        if inverse is not None:
            inverse.inverse = self


def _check_groups(count, n, groups, what):
    bounds = groups.bounds
    if count != bounds[-1] or n != len(bounds) - 1:
        raise DimensionError(
            f"{what}: {count} samples over mode size {n} do not match groups of "
            f"{bounds[-1]} samples over {len(bounds) - 1} values"
        )


def _take_rows(rows, perm):
    return rows if perm is None else np.take(rows, perm, axis=0)


def _mode_matmul_value(rows, core, groups):
    slices = np.ascontiguousarray(np.transpose(core, (1, 0, 2)))  # (n, r_l, r_r)
    src = _take_rows(rows, groups.src)
    b = groups.bounds
    buf = np.empty((b[-1], core.shape[2]))
    for i in range(len(b) - 1):
        if b[i] < b[i + 1]:
            np.matmul(src[b[i]:b[i + 1]], slices[i], out=buf[b[i]:b[i + 1]])
    return _take_rows(buf, groups.dst)


def _mode_outer_value(rows, u, groups, n):
    # rows come in the grouping's input order and u in its output order.
    a = _take_rows(rows, groups.src)
    c = _take_rows(u, groups.inverse.src)
    buf = np.zeros((n, rows.shape[1], u.shape[1]))
    b = groups.bounds
    for i in range(n):
        if b[i] < b[i + 1]:
            np.matmul(a[b[i]:b[i + 1]].T, c[b[i]:b[i + 1]], out=buf[i])
    return np.ascontiguousarray(np.transpose(buf, (1, 0, 2)))


def mode_matmul(rows, core, groups):
    """Per-sample row times mode slice: ``out[s] = rows[s] @ core[:, idx[s], :]``.

    ``rows`` is (N, r_left), ``core`` is (r_left, n, r_right) and ``groups``
    is a :class:`ModeGroups` of the length-N index vector ``idx``, which
    also says in which order of the samples the rows come in and go out;
    the result is (N, r_right).
    It runs one matrix product per mode value on the contiguous block of
    that value's rows, so nothing of size N * r_left * r_right is formed.
    """
    tape, rows, core, rv, cv = _operands(rows, core)
    if rv.ndim != 2 or cv.ndim != 3 or rv.shape[1] != cv.shape[0]:
        raise DimensionError(f"mode_matmul shapes incompatible: {rv.shape} x {cv.shape}")
    n = cv.shape[1]
    _check_groups(rv.shape[0], n, groups, "mode_matmul")
    return _node(tape, _mode_matmul_value(rv, cv, groups), "mode_matmul", (rows, core), (
        lambda u: mode_matmul(u, transpose(core, (2, 1, 0)), groups.inverse),
        lambda u: mode_outer(rows, u, groups, n),
    ))


def mode_outer(rows, u, groups, n):
    """Adjoint of :func:`mode_matmul` in its core: the (r_left, n, r_right)
    core whose slice ``i`` is the sum of ``outer(rows[s], u[s])`` over the
    samples ``s`` with ``idx[s] == i``.

    ``rows`` come in the input order of ``groups`` and ``u`` in its output
    order, as the operand and the adjoint of a :func:`mode_matmul` over the
    same grouping do.  One matrix product per mode value; a value that never
    occurs leaves a zero slice.
    """
    tape, rows, u, rv, uv = _operands(rows, u)
    if rv.ndim != 2 or uv.ndim != 2 or rv.shape[0] != uv.shape[0]:
        raise DimensionError(f"mode_outer shapes incompatible: {rv.shape} and {uv.shape}")
    _check_groups(rv.shape[0], n, groups, "mode_outer")
    return _node(tape, _mode_outer_value(rv, uv, groups, n), "mode_outer", (rows, u), (
        lambda w: mode_matmul(u, transpose(w, (2, 1, 0)), groups.inverse),
        lambda w: mode_matmul(rows, w, groups),
    ))
