"""Automatic differentiation on dynamically built expression graphs.

Values are float numpy arrays, and a node's dtype follows its inputs under
numpy's promotion rules; a number or array wrapped as a constant takes the
dtype of the node it meets, so a graph built from float32 leaves stays
float32 through ``backward`` and ``diff``.  The key
property is that derivatives are *new graph nodes* rather than plain
numbers, so they are themselves differentiable.  Two sweeps build them:

- ``diff`` is forward mode: the per-sample derivative of a residual field
  along one coordinate, one ``_jvp`` rule per op.  Higher orders share one
  tangent memo, so a second-order residual needs no reverse pass;
- ``backward`` is reverse mode: the gradient of a scalar (a training loss)
  with respect to many nodes (the parameters).  A pointwise op's Jacobian
  is diagonal, so its own transpose: ``backward`` applies the forward rule
  to the adjoint, and only structural ops have a ``_vjp`` rule.

tanh's derivative factor 1 - h*h (h = tanh(a)) is one pointwise node,
``dtanh``, whose own rule is t * (-2h).  The generic ``mul`` rule then
gives the second-order tangent in Taylor form, s*z'' + z'*(-2h*h'), and the
reverse sweep runs through one node instead of a ``1 - h*h`` subgraph.
``transpose``, ``column`` and ``columns`` return views of their input's
array.  No
node writes into an array after it is built; a replayed step may write its
result only into a temporary whose last reader it is (see ``_record``).

Each op's value is one numpy expression in the ``_KERNELS`` table.
``_record`` turns a graph into a program of those kernels, and ``_replay``
reruns it on new leaf values, building no node.  The program is a small IR:
each step keeps its op, attrs, argument and result slots and its result's
shape and dtype, so ``_record`` rewrites it once before it runs (constant
folding, x * 1 and x - 0 read x, common steps shared, inner-dimension-1
matmuls run as products or, for a kept column of ones, as repeated rows,
pointwise results written into a dying operand),
each rewrite giving the graph's bits.  So that
no data-dependent value is frozen into a recording, abs's sign and max's
argmax mask are ops that take no gradient, and checks are ``guard`` ops.

Nodes carry no graph object: each gets an increasing ``_id`` at creation,
inputs always have smaller ids than their consumers, and a graph is freed by
reference counting once its last node is dropped.

``backward`` builds adjoints only for nodes on a path from a ``wrt`` node to
the output (the activity analysis of reverse mode).  Everything else could
never reach a returned gradient, and every kept adjoint receives the same
contributions in the same order, so results equal a full sweep bit for bit.
The adjoint of a node read only by column ranges is accumulated where its
nonzeros are: each range's contributions are summed and the ranges are
joined once, instead of summing zero-padded blocks of the node's width
(equal bits, up to the sign of a NaN where two NaNs meet; see
``backward``).
``diff`` applies the same rule forwards: only nodes that depend on the
seeded coordinate get tangents, so no weight-shaped node is built.

A scalar broadcasts against any tensor, a 1 x k row against an N x k one,
and an N x 1 column against an N x k one (whose adjoint, a ``rowsum``, adds
the columns left to right); any other shape mix raises ``ShapeError``.
Non-finite results (log of a negative, division by zero) propagate without
clamping and are detectable via the node values.

Layout is part of a value's bits where a sum's order follows it: BLAS sums
a matmul's products in an order that depends on its operands' layouts, and
numpy's reductions sum along contiguous memory pairwise.  So a block that
may reach a matmul is C-ordered (row-major), as numpy makes it by default,
and a column stack (``concat_cols(..., order="F")``, a column broadcast
down a block, a column against a block) is F-ordered: its pointwise ops
and its row fold run down contiguous columns, as the N x 1 columns it
replaces did.
"""

import collections
import functools

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


_id_counter = [0]


class Node:
    """One differentiable expression in a computation graph."""

    __slots__ = ("op", "inputs", "value", "requires_grad", "attrs", "_id")

    def __init__(self, op, inputs, value, requires_grad, attrs=None):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.requires_grad = requires_grad
        self.attrs = attrs
        _id_counter[0] += 1
        self._id = _id_counter[0]

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, id={self._id})"

    # arithmetic sugar; python numbers and arrays auto-wrap to constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return neg(self)

    def __abs__(self):
        return absolute(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other, self))


def _wrap(x, like):
    """x as a node; a number or array takes the dtype of the node ``like``."""
    if isinstance(x, Node):
        return x
    return constant(x, like.value.dtype if isinstance(like, Node) else None)


def _float_array(value, dtype=None):
    value = np.asarray(value, dtype=dtype)
    return value if value.dtype.kind == "f" else value.astype(np.float64)


def constant(value, dtype=None):
    """A leaf that takes no gradient; a float array keeps its dtype unless
    ``dtype`` is given, anything else becomes float64."""
    return Node("constant", (), _float_array(value, dtype), requires_grad=False)


def variable(value, requires_grad=True):
    return Node("variable", (), _float_array(value), requires_grad)


def _is_scalar(a):
    return a.size == 1


def _is_row_of(row, shape):
    """Whether shape ``row`` is 1 x k and ``shape`` is N x k."""
    return (len(row) == 2 and len(shape) == 2 and row[0] == 1
            and row[1] == shape[1])


def _is_column_of(col, shape):
    """Whether shape ``col`` is N x 1 and ``shape`` is N x k, for N > 1 (a
    1 x 1 column is a scalar) and k > 1."""
    return (len(col) == 2 and len(shape) == 2 and col[1] == 1 < shape[1]
            and col[0] == shape[0] > 1)


def _check_elementwise(op, a, b):
    sa, sb = a.value.shape, b.value.shape
    if (sa == sb or _is_scalar(a.value) or _is_scalar(b.value)
            or _is_row_of(sa, sb) or _is_row_of(sb, sa)
            or _is_column_of(sa, sb) or _is_column_of(sb, sa)):
        return
    raise ShapeError(f"{op}: incompatible shapes {a.value.shape} and {b.value.shape}")


def _guarded(value, *checked, check):
    check(*checked)
    return value


def _outer(a, b):
    """a @ b for an N x 1 a and a 1 x M b, one product per entry.  Adding
    +0.0 turns a -0.0 product into +0.0, as matmul's one-term sum does, so
    the bits equal matmul's."""
    out = np.multiply(a, b)
    out += 0.0
    return out


def _repeat(ones, b):
    """ones @ b for an N x 1 column of ones and a 1 x M b: b's row N times.
    1.0 * x is x, and adding +0.0 turns -0.0 into +0.0 as matmul's one-term
    sum does, so the bits equal matmul's."""
    out = np.empty((ones.shape[0], b.shape[1]), np.result_type(ones, b))
    out[...] = b
    out += 0.0
    return out


def _rowsum(a):
    """Each row of a 2-D a added left to right from -0.0, so from its first
    entry: -0.0 + x is x, a row of -0.0 sums to -0.0.  ``np.add.reduce``
    over the rows of an F-ordered block adds whole columns in turn, which is
    that order; a C-ordered row would be summed pairwise, so a C-ordered
    block is copied first.  A lone row is contiguous either way and is
    summed by ``np.add.accumulate``, which runs left to right."""
    if a.shape[0] == 1:
        return np.add.accumulate(a, axis=1)[:, -1:]
    return np.add.reduce(np.asfortranarray(a), axis=1, keepdims=True,
                         initial=-0.0)


def _concat(*pieces, order="C"):
    """2-D pieces joined side by side into a block of the given layout."""
    out = np.empty((pieces[0].shape[0], sum(p.shape[1] for p in pieces)),
                   np.result_type(*pieces), order)
    return np.concatenate(pieces, axis=1, out=out)


def _one_minus_square(h, out=None):
    """1 - h*h, rounded as that expression is; into ``out`` if given."""
    out = np.multiply(h, h, out)
    return np.subtract(1.0, out, out)


# op -> the numpy expression of its value.  Node construction and replay
# (``_replay``) both call this table, so a replayed step runs the same ufuncs
# on the same inputs as the graph it was recorded from.
_KERNELS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
    "pow": lambda x, exponent: np.power(x, exponent), "neg": np.negative,
    "exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos,
    "tanh": np.tanh, "dtanh": _one_minus_square, "abs": np.abs,
    "sign": np.sign, "sum": np.sum, "mean": np.mean, "max": np.max,
    # a one at the first argmax: a deterministic tie-break
    "argmax_mask": lambda x: np.eye(1, x.size, int(np.argmax(x)),
                                    dtype=x.dtype).reshape(x.shape),
    "rowsum": _rowsum,
    "broadcast": lambda a, shape, order="C": np.broadcast_to(
        a.reshape(()) if a.size == 1 else a, shape).copy(order),
    "matmul": np.matmul, "transpose": lambda a: a.T,
    "column": lambda a, lo, hi: a[:, lo:hi],
    "concat": _concat, "guard": _guarded,
    # no node has these ops; ``_record`` runs an inner-dimension-1 matmul
    # so, and one whose left operand is a kept column of ones as ``repeat``
    "outer": _outer, "repeat": _repeat,
}


def _op(op, inputs, requires_grad, attrs=None):
    """A node whose value is op's kernel on its inputs' values; ``attrs``
    are the kernel's keyword arguments."""
    with np.errstate(all="ignore"):
        value = _KERNELS[op](*[i.value for i in inputs], **(attrs or {}))
    return Node(op, inputs, np.asarray(value), requires_grad, attrs)


def _elementwise(op, a, b):
    a = _wrap(a, b)
    b = _wrap(b, a)
    _check_elementwise(op, a, b)
    sa, sb = a.value.shape, b.value.shape
    # a column against a block runs column-major (see the module docstring)
    column_major = _is_column_of(sa, sb) or _is_column_of(sb, sa)
    return _op(op, (a, b), a.requires_grad or b.requires_grad,
               {"order": "F"} if column_major else None)


def _unary(op, a, attrs=None):
    return _op(op, (a,), a.requires_grad, attrs)


def add(a, b):
    return _elementwise("add", a, b)


def sub(a, b):
    return _elementwise("sub", a, b)


def mul(a, b):
    return _elementwise("mul", a, b)


def div(a, b):
    return _elementwise("div", a, b)


def power(a, exponent):
    return _unary("pow", a, {"exponent": float(exponent)})


def sqrt(a):
    return power(a, 0.5)


def neg(a):
    return _unary("neg", a)


def exp(a):
    return _unary("exp", a)


def log(a):
    return _unary("ln", a)


def sin(a):
    return _unary("sin", a)


def cos(a):
    return _unary("cos", a)


def tanh(a):
    return _unary("tanh", a)


def _dtanh(h):
    """tanh's derivative factor 1 - h*h as one node, given h = tanh(a)."""
    return _unary("dtanh", h)


def absolute(a):
    return _unary("abs", a)


def reduce_sum(a):
    return _unary("sum", a)


def reduce_mean(a):
    return _unary("mean", a)


def reduce_max(a):
    return _unary("max", a)


def rowsum(a):
    """The sum of each row of a 2-D node as an N x 1 node; a one-column node
    itself.  The columns are added left to right, as the fold ``total =
    total + term`` over them does, bit for bit on any layout (``_rowsum``);
    an F-ordered block is folded in place, a C-ordered one copied first."""
    if a.value.ndim != 2:
        raise ShapeError(f"rowsum requires a 2-D operand, got {a.value.shape}")
    if a.value.shape[1] == 1:
        return a
    return _unary("rowsum", a)


def broadcast_to(a, shape):
    """Repeat a scalar, a 1 x k row down N rows, or an N x 1 column across
    k columns (F-ordered, as a column stack is) to ``shape``."""
    shape = tuple(shape)
    if _is_column_of(a.value.shape, shape):
        return _unary("broadcast", a, {"shape": shape, "order": "F"})
    if not (_is_scalar(a.value) or _is_row_of(a.value.shape, shape)):
        raise ShapeError(f"cannot broadcast shape {a.value.shape} to {shape}")
    return _unary("broadcast", a, {"shape": shape})


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError(
            f"matmul requires 2-D operands, got {a.value.shape} and {b.value.shape}"
        )
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.value.shape} and {b.value.shape}"
        )
    return _op("matmul", (a, b), a.requires_grad or b.requires_grad)


def transpose(a):
    if a.value.ndim != 2:
        raise ShapeError(f"transpose requires a 2-D operand, got {a.value.shape}")
    return _unary("transpose", a)


def column(a, j):
    """Column j of a 2-D node as an N x 1 node; a one-column node itself."""
    if a.value.ndim != 2 or not 0 <= j < a.value.shape[1]:
        raise ShapeError(f"no column {j} in shape {a.value.shape}")
    return columns(a, j, j + 1)


def columns(a, lo, hi):
    """Columns lo..hi-1 of a 2-D node as a view; all of them is the node
    itself."""
    if a.value.ndim != 2 or not 0 <= lo < hi <= a.value.shape[1]:
        raise ShapeError(f"no columns {lo}:{hi} in shape {a.value.shape}")
    if hi - lo == a.value.shape[1]:
        return a
    return _unary("column", a, {"lo": lo, "hi": hi})


def concat_cols(pieces, order="C"):
    """Join 2-D nodes of equal row counts side by side; a single piece comes
    back unchanged.

    ``order`` is the result's layout.  "C", the default, is what a block
    that may reach a matmul needs (see the module docstring: a network's
    input, an adjoint joined from column reads).  "F" stacks columns
    contiguously: a block whose use is pointwise ops and a row fold (a
    basis evaluation, expansion coefficients) runs them faster so, and
    ``rowsum`` folds it without a copy.
    """
    shapes = [p.value.shape for p in pieces]
    if (not shapes or any(len(s) != 2 for s in shapes)
            or len({s[0] for s in shapes}) > 1):
        raise ShapeError(f"concat_cols needs 2-D pieces of equal rows, "
                         f"got {shapes}")
    if len(pieces) == 1:
        return pieces[0]
    return _op("concat", tuple(pieces), any(p.requires_grad for p in pieces),
               {"order": order})


def _sign(x):
    """sign(x), abs's subgradient (0 at the kink); takes no gradient."""
    return _op("sign", (x,), False)


def _argmax_mask(x):
    """One-hot mask of x's first largest entry; takes no gradient."""
    return _op("argmax_mask", (x,), False)


def _guard(node, checked, check):
    """``node`` itself (same array) after ``check(*values of checked)`` has
    run; tangents and adjoints pass to ``node`` alone."""
    return _op("guard", (node, *checked), node.requires_grad,
               {"check": check})


def _topo_below(root):
    """Requires-grad nodes below root in creation (= topological) order."""
    seen = set()
    stack = [root]
    collected = []
    while stack:
        n = stack.pop()
        if n._id in seen or not n.requires_grad:
            continue
        seen.add(n._id)
        collected.append(n)
        stack.extend(n.inputs)
    collected.sort(key=lambda n: n._id)
    return collected


def _fit_shape(g, target):
    """Reduce a gradient node to the shape of the operand it belongs to."""
    if g.value.shape == target.value.shape:
        return g
    # a row operand sums its adjoint over rows; checked before the scalar
    # rule so a 1 x 1 bias gets the ones @ g product it always got
    if _is_row_of(target.value.shape, g.value.shape):
        ones = np.ones((1, g.value.shape[0]), dtype=g.value.dtype)
        return matmul(constant(ones), g)
    if _is_scalar(target.value):
        s = reduce_sum(g)
        if target.value.shape != ():
            s = broadcast_to(s, target.value.shape)
        return s
    # a column operand folds its adjoint's columns left to right
    if _is_column_of(target.value.shape, g.value.shape):
        return rowsum(g)
    raise ShapeError(
        f"gradient shape {g.value.shape} does not fit operand {target.value.shape}"
    )


_POINTWISE = frozenset(("add", "sub", "mul", "div", "pow", "neg", "exp", "ln",
                        "sin", "cos", "tanh", "dtanh", "abs"))


def _vjp(node, g, need):
    """Gradients of node's inputs given the adjoint g (all graph nodes).

    ``need[i]`` says whether input i wants its gradient; an unwanted binary
    operand gets None and nothing is built for it, as do a guard's checked
    inputs.  Unary ops are only asked when their input is wanted.  A
    pointwise op (the arithmetic ops, the unary functions and ``dtanh``)
    gives input i the ``_jvp`` rule with g as input i's tangent; only
    structural ops have a rule here.  ``matmul``
    pairs g with a transpose of the other operand, which is a view, so no
    activation is copied for a weight gradient.  ``column`` has no rule:
    ``backward`` gathers a node's column reads (``_column_adjoint``).
    ``rowsum`` hands every column g, broadcast F-ordered.
    """
    op = node.op
    if op == "guard":
        return (g if need[0] else None,) + (None,) * (len(need) - 1)
    if op in _POINTWISE:
        if len(need) == 1:
            return (_jvp(node, (g,)),)
        return (_jvp(node, (g, None)) if need[0] else None,
                _jvp(node, (None, g)) if need[1] else None)
    a = node.inputs[0]
    if op == "sum":
        return (broadcast_to(g, a.value.shape) if a.value.shape != () else g,)
    if op == "mean":
        scaled = g / float(a.value.size)
        return (broadcast_to(scaled, a.value.shape) if a.value.shape != () else scaled,)
    if op == "max":
        return (mul(g, _argmax_mask(a)),)
    if op == "broadcast":
        return (g,)  # backward's _fit_shape sums it down to a's shape
    if op == "rowsum":
        return (broadcast_to(g, a.value.shape),)
    if op == "matmul":
        b = node.inputs[1]
        return (matmul(g, transpose(b)) if need[0] else None,
                matmul(transpose(a), g) if need[1] else None)
    if op == "transpose":
        return (transpose(g),)
    if op == "concat":
        ends = np.cumsum([p.value.shape[1] for p in node.inputs])
        return tuple(columns(g, hi - p.value.shape[1], hi) if wanted else None
                     for p, hi, wanted in zip(node.inputs, ends.tolist(), need))
    raise ValueError(f"no vjp for op {op!r}")


def _zero_column(a, like):
    """A +0.0 column of a's rows in the dtype of the adjoint ``like``."""
    return constant(np.zeros((a.value.shape[0], 1), like.value.dtype))


def _padded(a, lo, hi, g):
    """g as columns lo..hi-1 of an otherwise zero C-ordered block of a's
    width."""
    zero = _zero_column(a, g)
    return concat_cols([zero] * lo + [g] + [zero] * (a.value.shape[1] - hi))


def _column_adjoint(a, reads):
    """The adjoint of ``a`` from its column-range reads alone: ``reads``
    holds ``(lo, hi, g)`` in arrival order.

    The read bounds cut a's columns into segments.  Each segment folds, in
    arrival order, the part of each read that covers it (the read's g, or a
    ``columns`` view of it), and one C-ordered ``concat_cols`` joins the
    segments, a shared +0.0 column standing for each unread column: the
    result may reach a matmul, whose bits follow its layout.  Summing the
    zero-padded blocks instead would add the padding's +0.0 to a segment
    that some read does not cover, which turns -0.0 into +0.0 and changes
    nothing else; one ``add(·, 0.0)`` stands for it, on the joined block
    when every read segment is such a one (as for reads of two distinct
    single columns) and on each such segment otherwise.  Every adjoint of
    one ``backward`` has the output's dtype (promotion only widens), so no
    segment sums in a narrower dtype than the padded fold would.
    """
    cuts = sorted({0, a.value.shape[1]}.union(
        *[(lo, hi) for lo, hi, _ in reads]))
    segments = list(zip(cuts, cuts[1:]))
    sums, covers = {}, dict.fromkeys(cuts, 0)
    for lo, hi, g in reads:
        for s, e in segments:
            if lo <= s and e <= hi:
                part = g if (s, e) == (lo, hi) else columns(g, s - lo, e - lo)
                sums[s] = add(sums[s], part) if s in sums else part
                covers[s] += 1
    padded = [s for s in sums if covers[s] < len(reads)]
    every = len(padded) == len(sums)
    if not every:
        sums.update((s, add(sums[s], 0.0)) for s in padded)
    zero = _zero_column(a, reads[0][2])
    block = concat_cols([p for s, e in segments
                         for p in ([sums[s]] if s in sums else [zero] * (e - s))])
    return add(block, 0.0) if every else block


def backward(output, wrt):
    """Differentiate a scalar output with respect to each node in ``wrt``.

    Returns one new graph node per entry of ``wrt``, all computed in a single
    reverse traversal.  The returned nodes are themselves differentiable, so
    nesting backward gives higher-order derivatives.  A wrt node unreachable
    from the output yields a zero gradient (not an error).

    Only nodes that depend on some ``wrt`` node get adjoints: a parameter
    gradient builds no coordinate adjoints, and a coordinate derivative
    builds no weight-gradient products.  The pruned nodes could never reach
    a returned gradient, so the results equal a full sweep bit for bit.

    The contributions a node receives from ``column``/``columns`` reads are
    held until the sweep reaches the node, or until its first dense
    contribution arrives, and then built in one piece
    (``_column_adjoint``): per-segment sums joined by one C-ordered
    concatenation, not a sum of zero-padded full-width blocks.  A range
    read that arrives after a dense contribution is padded and added in
    arrival order, as every contribution is.  The entries equal the padded
    fold's bit for bit, except that where two NaNs meet in one addition the
    sign of the NaN that survives depends on numpy's loop for the shapes at
    hand: a NaN entry is NaN in both, but its sign may differ.  A
    ``rowsum`` hands its adjoint to every column as one F-ordered
    broadcast, and an N x 1 operand of a column-against-block op gets its
    block adjoint folded by ``rowsum``, left to right.
    """
    if not _is_scalar(output.value):
        raise ShapeError(
            f"backward requires a scalar output, got shape {output.value.shape}"
        )
    for w in wrt:
        if not w.requires_grad:
            raise ValueError("wrt node does not require grad")
    order = _topo_below(output)
    # one sweep in id order marks the nodes that depend on a wrt node
    active = {w._id for w in wrt}
    for node in order:
        if any(inp._id in active for inp in node.inputs):
            active.add(node._id)
    adjoint = {output._id: constant(np.ones_like(output.value))}
    # node id -> the (j, g) of its column reads, while it has no other
    # contribution; built into one adjoint when the sweep reaches the node
    reads = {}
    for node in reversed(order):
        if node._id in reads:
            adjoint[node._id] = _column_adjoint(node, reads.pop(node._id))
        g = adjoint.get(node._id)
        if g is None:
            continue
        need = [inp._id in active for inp in node.inputs]
        if not any(need):
            continue
        if node.op == "column":
            a, lo, hi = node.inputs[0], node.attrs["lo"], node.attrs["hi"]
            if a._id in adjoint:  # after a dense contribution: padded
                adjoint[a._id] = add(adjoint[a._id], _padded(a, lo, hi, g))
            else:
                reads.setdefault(a._id, []).append((lo, hi, g))
            continue
        for inp, ig in zip(node.inputs, _vjp(node, g, need)):
            if ig is None:
                continue
            ig = _fit_shape(ig, inp)
            if inp._id in reads:  # a dense contribution after column reads
                adjoint[inp._id] = _column_adjoint(inp, reads.pop(inp._id))
            prev = adjoint.get(inp._id)
            adjoint[inp._id] = ig if prev is None else add(prev, ig)
    results = []
    for w in wrt:
        g = adjoint.get(w._id)
        if g is None:
            g = constant(np.zeros_like(w.value))
        results.append(g)
    return results


def _jvp(node, t):
    """Tangent of node given its inputs' tangents t (all graph nodes).

    ``t[i]`` is None for an input that does not depend on the seeded node;
    no term is built for it.  Unary ops are only asked when their input has
    a tangent.
    """
    op = node.op
    a, ta = node.inputs[0], t[0]
    if len(t) == 2:
        b, tb = node.inputs[1], t[1]
    if op == "add":
        return _plus(ta, tb)
    if op == "sub":
        if ta is None:
            return neg(tb)
        return ta if tb is None else sub(ta, tb)
    if op == "mul":
        return _plus(mul(ta, b) if ta is not None else None,
                     mul(a, tb) if tb is not None else None)
    if op == "div":
        # d(a/b) = (da - (a/b) db) / b
        if tb is None:
            return div(ta, b)
        q = mul(node, tb)
        return div(neg(q) if ta is None else sub(ta, q), b)
    if op == "pow":
        p = node.attrs["exponent"]
        if p == 1.0:
            return ta
        if p == 2.0:
            return mul(ta, 2.0 * a)
        return mul(ta, p * power(a, p - 1.0))
    if op == "neg":
        return neg(ta)
    if op == "exp":
        return mul(ta, node)
    if op == "ln":
        return div(ta, a)
    if op == "sin":
        return mul(ta, cos(a))
    if op == "cos":
        return neg(mul(ta, sin(a)))
    if op == "tanh":
        return mul(ta, _dtanh(node))
    if op == "dtanh":
        return mul(ta, -2.0 * a)
    if op == "abs":
        return mul(ta, _sign(a))
    if op == "guard":
        return ta
    if op == "sum":
        return reduce_sum(ta)
    if op == "mean":
        return reduce_mean(ta)
    if op == "max":
        return reduce_sum(mul(ta, _argmax_mask(a)))
    if op == "broadcast":
        return broadcast_to(ta, node.attrs["shape"])
    if op == "matmul":
        return _plus(matmul(ta, b) if ta is not None else None,
                     matmul(a, tb) if tb is not None else None)
    if op == "transpose":
        return transpose(ta)
    if op == "column":
        return columns(ta, node.attrs["lo"], node.attrs["hi"])
    if op == "concat":
        # one zero per shape among the pieces with no tangent, shared
        zeros = {}
        for p, ti in zip(node.inputs, t):
            if ti is None and p.value.shape not in zeros:
                zeros[p.value.shape] = constant(
                    np.zeros(p.value.shape, a.value.dtype))
        return concat_cols([zeros[p.value.shape] if ti is None else ti
                            for p, ti in zip(node.inputs, t)],
                           node.attrs["order"])
    if op == "rowsum":
        return rowsum(ta)
    raise ValueError(f"no jvp for op {op!r}")


def _plus(p, q):
    """Sum of two tangent terms, either of which may be absent."""
    if p is None:
        return q
    return p if q is None else add(p, q)


def _push_tangents(u, tangents):
    """Tangent of u, filling the memo ``tangents`` (node id -> tangent node,
    or None for a node that does not depend on the seed) on the way."""
    for node in _topo_below(u):
        if node._id in tangents:
            continue
        t = [tangents.get(inp._id) for inp in node.inputs]
        if not any(ti is not None for ti in t):
            tangents[node._id] = None
            continue
        tn = _jvp(node, t)  # None for a guard whose node has no tangent
        # an active scalar or row met a tensor
        if tn is not None and tn.value.shape != node.value.shape:
            tn = broadcast_to(tn, node.value.shape)
        tangents[node._id] = tn
    tu = tangents.get(u._id)
    return tu if tu is not None else constant(np.zeros_like(u.value))


def diff(u, x, order=1):
    """Per-sample derivative d^order u / dx^order as a new graph node.

    u must be scalar per sample (one column); x a variable node with the same
    batch layout.  Computed in forward mode: x is seeded with a tangent of
    ones and each node's tangent is built from its inputs' tangents, which
    is the per-sample derivative because sample rows are independent.  Order
    k pushes tangents through the order k-1 result, sharing one memo, so the
    tangents of every node an earlier order covered are reused.  The
    tangents are ordinary graph nodes, so ``backward`` differentiates them
    and ``diff`` nests.  If u does not depend on x, the result is zeros.
    """
    return _derivatives(u, x, order)[-1]


def _derivatives(u, x, k):
    """``[du/dx, ..., d^k u/dx^k]``, every order from one tangent memo."""
    if k < 1:
        raise ValueError("order must be >= 1; use u directly for order 0")
    if not x.requires_grad:
        raise ValueError("wrt node does not require grad")
    tangents = {x._id: constant(np.ones_like(x.value))}
    out = []
    g = u
    for _ in range(k):
        g = _push_tangents(g, tangents)
        out.append(g)
    return out


def accumulate_gradients(loss_fn, batches):
    """The union batch's loss and parameter gradients from its batches.

    ``loss_fn(batch)`` returns ``(loss value, gradient arrays)`` for one
    batch, where the loss is a mean over the batch samples.  Each batch is
    weighted by its share of the samples, so the results equal those of the
    union batch, whose graph is never built.  Returns ``(loss value,
    gradient arrays)``.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("accumulate_gradients needs at least one batch")
    total = sum(len(b) for b in batches)
    loss, grads = 0, None
    for batch in batches:
        value, params = loss_fn(batch)
        loss += value * len(batch)
        w = len(batch) / total
        vals = [g * w for g in params]
        if grads is None:
            grads = vals
        else:
            grads = [acc + v for acc, v in zip(grads, vals)]
    return loss / total, grads


# One step of a recorded program (see ``_record``): the op and attrs of the
# node it came from, its argument slots, its result slot and the result's
# shape and dtype.  ``kernel`` is ``_KERNELS[op]`` with the attrs bound, and
# ``free`` lists the slots last read by this step.
_Step = collections.namedtuple(
    "_Step", "op attrs args out shape dtype kernel free")

# A recorded graph: ``slots`` is the register file a replay starts from (the
# inputs' slots empty, then the kept arrays), ``steps`` the ``_Step``s in run
# order, ``outputs`` the slots returned, and ``rewrites`` the number of
# recorded steps and what each rewrite removed (``outer`` and ``into``:
# rewrote; ``repeat``: how many of the ``outer`` steps run as ``_repeat``).
_Program = collections.namedtuple("_Program", "slots steps outputs rewrites")

_REWRITES = ("fold", "alias", "share", "outer", "into")

# pointwise ops whose kernel takes a positional ``out`` after its operands,
# with their operand count: the steps the ``into`` rewrite may write into a
# dying operand
_INTO = {"add": 2, "sub": 2, "mul": 2, "div": 2, "neg": 1, "exp": 1, "ln": 1,
         "sin": 1, "cos": 1, "tanh": 1, "abs": 1, "sign": 1, "dtanh": 1}

# ops whose result shares its block with an argument: a view, or the
# guarded array itself
_VIEWS = frozenset(("transpose", "column", "guard"))


def _attrs_key(attrs):
    """attrs as a hashable key: a callable by identity (two checks are two
    steps), anything else by repr (so -0.0 is not 0.0)."""
    return tuple((k, id(v) if callable(v) else repr(v))
                 for k, v in (attrs or {}).items())


def _alias_operand(node, consts):
    """Index of the operand that ``node`` returns bit for bit, or None.

    ``consts[i]`` is input i's kept array (None if it is computed).  x * 1
    (ones on either side) and x - (+0.0) are x, when x already has the
    result's shape and dtype, and for a column against a block (whose
    result is F-ordered, whatever x's layout) its strides: a later sum or
    matmul follows the layout.  x + 0 is not: -0.0 + 0.0 is +0.0, and so
    is x - (-0.0) for x = -0.0.
    """
    if node.op == "mul":
        pairs = ((0, 1), (1, 0))
    elif node.op == "sub":
        pairs = ((0, 1),)
    else:
        return None
    out = node.value
    for x, c in pairs:
        v, xv = consts[c], node.inputs[x].value
        if (v is None or (xv.shape, xv.dtype) != (out.shape, out.dtype)
                or (node.attrs and xv.strides != out.strides)):
            continue
        if (node.op == "mul" and (v == 1).all()) or (
                node.op == "sub" and not (v.any() or np.signbit(v).any())):
            return x
    return None


def _layout(v):
    return v.shape, v.dtype, v.strides


def _record(outputs, inputs, fixed_data=False):
    """The graph below ``outputs`` as a program that recomputes their
    values from new values of the leaves ``inputs``.

    Walks back along every input edge (no-gradient and guard nodes too);
    ops run in ``_id`` order.  Any other leaf is kept: a compact copy of its
    array that owns its data and keeps its layout, one per distinct value.
    So a kept leaf must not depend on the data: one with as many rows as
    the first input (the data's, when more than one) and entries not all
    equal raises ``ValueError``.  With ``fixed_data`` the data's leaves are
    not inputs but kept, the program is valid for that data only (the
    caller records again for other data), and no such check is made.

    The program is an IR: each ``_Step`` keeps its node's op, attrs and
    result shape and dtype.  These rewrites run once, in one pass in
    ``_id`` order and one back, and each gives the same bits as the graph:

    - fold: a step whose arguments are all kept is not run; its node's
      value is kept instead (the value the step would compute);
    - alias: x * 1 and x - (+0.0) read x's slot (``_alias_operand``); x + 0
      is kept, as -0.0 + 0.0 is +0.0;
    - share: a step with the same op, argument slots and attrs as an earlier
      one reads that one's result (a callable attr, such as a guard's
      check, compares by identity);
    - outer: an inner-dimension-1 ``matmul`` runs as the broadcast product
      ``_outer``, which rounds each entry as matmul's one-term sum does;
      when its left argument is a kept column of ones (a tangent seed), as
      ``_repeat``, which copies the right argument's row down and adds
      +0.0, since 1.0 * x is x (counted as ``repeat`` among the ``outer``
      steps);
    - into: a 2-D pointwise step (``_INTO``) writes its result into an
      argument it reads for the last time, passed as the kernel's ``out``
      (appended to the step's ``args``).  That argument must be a block a
      step of this program wrote, no view or guard step reads and no input,
      kept array or output holds; it appears once among the arguments and
      has the result's shape, dtype and strides, so later steps see the
      layout the graph had.  An elementwise ufunc gives the same bits in
      place.

    No step is dead: the walk starts from the outputs, and no rewrite above
    leaves a remaining step unread.  A slot is freed after its last read,
    and a kept array no step reads is not held.
    """
    rows = 0 if fixed_data else inputs[0].value.shape[0]
    slot = {n._id: i for i, n in enumerate(inputs)}
    seen, stack = {}, list(outputs)
    while stack:
        n = stack.pop()
        if n._id not in seen:
            seen[n._id] = n
            if n._id not in slot:
                stack.extend(n.inputs)
    slots, kept, shared, ops = [None] * len(inputs), {}, {}, []
    counts = dict.fromkeys(("recorded",) + _REWRITES + ("repeat",), 0)

    def keep(v):
        key = (v.dtype.str, v.shape, v.strides, v.tobytes())
        if key not in kept:
            kept[key] = len(slots)
            slots.append(v)
        return kept[key]

    order = sorted(seen.values(), key=lambda n: n._id)
    for n in order:
        if n._id in slot:
            continue
        if not n.inputs:
            v = n.value
            if v.ndim == 2 and v.shape[0] == rows > 1 and (v != v.flat[0]).any():
                reader = next(o.op for o in order if n in o.inputs)
                raise ValueError(f"a {v.shape} constant read by {reader!r} holds "
                                 "data a recording would freeze; use graph ops")
            slot[n._id] = keep(v)
            continue
        counts["recorded"] += 1
        args = tuple(slot[i._id] for i in n.inputs)
        consts = [slots[a] for a in args]  # a kept slot holds its array
        if all(c is not None for c in consts):
            slot[n._id] = keep(n.value)
            counts["fold"] += 1
            continue
        x = _alias_operand(n, consts)
        if x is not None:
            slot[n._id] = args[x]
            counts["alias"] += 1
            continue
        key = (n.op, args, _attrs_key(n.attrs))
        if key in shared:
            slot[n._id] = shared[key]
            counts["share"] += 1
            continue
        slot[n._id] = shared[key] = len(slots)
        slots.append(None)
        ops.append((n, args))
    out_slots = [slot[o._id] for o in outputs]
    # the layout of each block that only its own slot holds: written by a
    # step that is not a view or guard, and read by none
    viewed = {a for n, args in ops if n.op in _VIEWS for a in args}
    owned = {slot[n._id]: _layout(n.value) for n, _ in ops
             if n.op not in _VIEWS and slot[n._id] not in viewed}
    steps, used = [], set(out_slots)
    for n, args in reversed(ops):  # a slot's last read is the first met here
        out = slot[n._id]
        op = n.op
        if op == "matmul" and n.inputs[0].value.shape[1] == 1:
            left = slots[args[0]]  # None unless kept
            ones = left is not None and (left == 1).all()
            op = "repeat" if ones else "outer"
            counts["outer"] += 1
            counts["repeat"] += op == "repeat"
        kernel = _KERNELS[op]
        if n.attrs:
            kernel = functools.partial(kernel, **n.attrs)
        free = tuple(set(args) - used)
        used.update(args)
        if op in _INTO and n.value.ndim == 2:
            into = next((a for a in args if a in free and args.count(a) == 1
                         and owned.get(a) == _layout(n.value)), None)
            if into is not None:
                args += (into,)
                counts["into"] += 1
        steps.append(_Step(op, n.attrs, args, out, n.value.shape,
                           n.value.dtype, kernel, free))
    # a kept array is copied apart from the blocks the graph frees, and
    # only if a step reads it; a view does not pin its base, and the copy
    # keeps the value's layout (so matmul's bits)
    slots = [v.copy(order="K") if v is not None and i in used else None
             for i, v in enumerate(slots)]
    return _Program(slots, steps[::-1], out_slots, counts)


def _replay(program, values):
    """Run a recorded program on new values of its inputs, given in
    ``_record``'s order; returns the values of its outputs.  A loop over
    the steps on one list of registers; the IR fields are not read."""
    regs = program.slots.copy()
    regs[:len(values)] = values
    read = regs.__getitem__
    with np.errstate(all="ignore"):
        for step in program.steps:
            regs[step.out] = step.kernel(*map(read, step.args))
            for s in step.free:
                regs[s] = None
    return [regs[s] for s in program.outputs]
