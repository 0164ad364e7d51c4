"""Automatic differentiation on dynamically built expression graphs.

Values are float numpy arrays, and a node's dtype follows its inputs under
numpy's promotion rules; a number or array wrapped as a constant takes the
dtype of the node it meets, so a graph built from float32 leaves stays
float32 through ``backward`` and ``diff``.  The key
property is that derivatives are *new graph nodes* rather than plain
numbers, so they are themselves differentiable.  Two sweeps build them:

- ``diff`` is forward mode: the per-sample derivative of a residual field
  along one coordinate, one ``_jvp`` rule per op.  Higher orders share one
  tangent memo, so a second-order residual needs no reverse pass.
  ``laplacian`` sums the second derivatives along several coordinates in
  one forward sweep: a first-order tangent memo per coordinate, and one
  second-order stream that all coordinates share, to which each node adds
  its curvature along each coordinate (the second-order tangent of its
  first-order one, the inputs' held at zero).  So a D-dimensional
  Laplacian costs one second-order matmul per layer, not D.  It equals the
  sum of the ``diff(u, x, 2)`` to a few ulps of its terms' magnitudes, not
  bit for bit, since the directions are added node by node;
- ``backward`` is reverse mode: the gradient of a scalar (a training loss)
  with respect to many nodes (the parameters).  A pointwise op's Jacobian
  is diagonal, so its own transpose: ``backward`` applies the forward rule
  to the adjoint, and only structural ops have a ``_vjp`` rule.

tanh's derivative factor 1 - h*h (h = tanh(a)) is one pointwise node,
``dtanh``, whose own rule is t * (-2h).  The generic ``mul`` rule then
gives the second-order tangent in Taylor form, s*z'' + z'*(-2h*h'), and the
reverse sweep runs through one node instead of a ``1 - h*h`` subgraph.
``column`` and ``columns`` return views of their input's array, and so
does ``transpose`` unless it is asked for C order.  No node writes into an
array after it is built; a replayed step may write its result only into a
temporary whose last reader it is (see ``_instantiate``).

Each op's value is one numpy expression in the ``_KERNELS`` table.
``_record`` turns a batch's graph into a program of those kernels without
building that graph: a graph's structure does not depend on its row count,
so it builds the graph on 2 and on 3 of the batch's rows, chosen to differ
wherever the batch does (``solver._probe_rows``), checks that the two agree
everywhere but on the batch axis (``_generic``), and instantiates the one
row-generic graph they make at the batch's row count (``_instantiate``):
trace once on a few rows, replay at any size, as in
Frostig, Johnson and Leary 2018 ("Compiling machine learning programs via
high-level tracing").  ``_replay`` reruns a program on new leaf values,
building no node, through one generated straight-line Python function per
program (compiled when the program is made): one kernel call per step.
The program is a small IR: each step keeps its op, attrs, argument and
result slots and its result's shape and dtype, so ``_instantiate``
rewrites it once before it runs (constant folding, whose folded steps run
there at the batch's row count, x * 1 and x - 0 read x, a check of kept
values run once, common steps shared, pointwise results written into a
dying operand, after its other readers where the order allows), each
rewrite giving the graph's bits.  No rewrite changes an op: a step runs
its node's kernel, and the graph already runs each matmul on BLAS's faster
path (``_matmul``): a C-ordered weight transpose, one ``einsum`` for an
inner dimension of 1, and row tiles for a product above OpenBLAS's
small-matrix bound.  OpenBLAS 0.3.31 runs a product of M·K·N <= 10⁶ on its
small-matrix kernels and a larger one on its blocked path, ~1.6x slower
per flop for the network's shapes (one thread, hot, float64: (768, 32) @
(32, 32) 58 GFLOP/s, (1024, 32) @ (32, 32) 35 GFLOP/s, and 52 GFLOP/s as
2 tiles of 512 rows; ``tools/blas.py`` measures it).  A tile splits rows
only, never K.  So that no data-dependent value is frozen into a
recording, abs's sign and max's argmax mask are ops that take no gradient,
and checks are ``guard`` ops; a kept constant that holds data, or a
function of the row count other than a multiple of it, reads differently
on the two probes and raises.

Nodes carry no graph object: each gets an increasing ``_id`` at creation,
inputs always have smaller ids than their consumers, and a graph is freed by
reference counting once its last node is dropped.

Activity analysis alone decides what a sweep builds (Griewank and Walther,
"Evaluating Derivatives", 2nd ed., 2008): nodes carry no flag saying
whether they take a gradient, any node may be the ``wrt`` of a sweep, and
a leaf is frozen by leaving it out of ``wrt``.  A derivative passes along
every input edge but those of the no-gradient ops (abs's sign, max's
argmax mask) and a guard's checked inputs (``_differentiable``).
``backward`` builds adjoints only for nodes on such a path from a ``wrt``
node to the output (the active nodes).  Everything else could
never reach a returned gradient, and every kept adjoint receives the same
contributions in the same order, so results equal a full sweep bit for bit.
The adjoint of a node read only by column ranges is accumulated where its
nonzeros are: each range's contributions are summed and the ranges are
joined once, instead of summing zero-padded blocks of the node's width
(equal bits, up to the sign of a NaN where two NaNs meet; see
``backward``).
``diff`` applies the same rule forwards: only nodes that depend on the
seeded coordinate along such paths get tangents, so no weight-shaped node
is built.

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

    __slots__ = ("op", "inputs", "value", "attrs", "_id")

    def __init__(self, op, inputs, value, attrs=None):
        self.op = op
        self.inputs = inputs
        self.value = value
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
    """A leaf for a fixed value; a float array keeps its dtype unless
    ``dtype`` is given, anything else becomes float64."""
    return Node("constant", (), _float_array(value, dtype))


def variable(value):
    """A leaf for a value a caller may differentiate with respect to (a
    coordinate, a parameter), as float64 unless it is a float array.  Any
    node may be a ``wrt`` of ``backward``, ``diff`` or ``laplacian``; a
    leaf that is no ``wrt`` of a sweep gets nothing built for it."""
    return Node("variable", (), _float_array(value))


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


# The largest M·K·N that OpenBLAS runs on its small-matrix kernels
# (OpenBLAS 0.3.31 on an AVX-512 Xeon; ``tools/blas.py`` measures it); a
# larger product takes its blocked path, slower per flop for the network's
# shapes (``_matmul``).
_SMALL_PRODUCT = 10 ** 6


def _tile_rows(a, b):
    """The rows of each tile ``_matmul`` splits ``a @ b`` into, or None for
    one product: a C-ordered ``a`` whose M·K·N exceeds ``_SMALL_PRODUCT``
    is cut into the fewest equal row tiles, each a multiple of 8 rows,
    that keep every tile's M·K·N within it (the last tile may be shorter);
    None if even 8 rows exceed it."""
    (m, k), n = a.shape, b.shape[1]
    if (m * k * n <= _SMALL_PRODUCT or 8 * k * n > _SMALL_PRODUCT
            or not a.flags.c_contiguous):
        return None
    tiles = -(-m * k * n // _SMALL_PRODUCT)
    while True:
        rows = -(-m // tiles)
        rows = -(-rows // 8) * 8
        if rows * k * n <= _SMALL_PRODUCT:
            return rows
        tiles += 1


def _matmul(a, b):
    """a @ b, the one matmul kernel of the graph and the replay.

    An inner dimension of 1 runs as one ``einsum``, which sums each entry's
    one product from +0.0 as matmul does (so -0.0 becomes +0.0), into a
    C-ordered block: matmul's bits, dtype and strides, at a fraction of
    BLAS's cost for that shape.

    A product above OpenBLAS's small-matrix bound (M·K·N >
    ``_SMALL_PRODUCT``) with a C-ordered ``a`` runs as row tiles
    (``_tile_rows``), each written by ``np.matmul(..., out=)`` into a row
    view of one fresh C-ordered result, so every tile runs on the small
    kernels.  OpenBLAS 0.3.31, one thread, hot, float64:

    ==========================  ========  ======================
    product                     one call  row tiles
    ==========================  ========  ======================
    (768, 32) @ (32, 32)        27 µs     (within the bound)
    (1024, 32) @ (32, 32)       59 µs     2 × 512 rows: 41 µs
    (512, 64) @ (64, 64)        91 µs     3 × 176 rows: 73 µs
    ==========================  ========  ======================

    Tiles split rows only, never K, so each entry sums the same products.
    The result equals the untiled ``np.matmul`` bit for bit, in float32 and
    float64, on every product the four benchmark workloads run above the
    bound (those two shapes), with matmul's dtype and strides.  Some other
    shapes, such as N = 9 or N = 100 at M >= 2048, differ from the untiled
    product in the last bits, because BLAS's blocked path orders their sums
    otherwise; the graph and a replay both run this kernel, so they agree
    on every shape."""
    if a.shape[1] == 1:
        return np.einsum("ij,jk->ik", a, b, order="C")
    rows = _tile_rows(a, b)
    if rows is None:
        return np.matmul(a, b)
    out = np.empty((a.shape[0], b.shape[1]), np.result_type(a, b))
    for lo in range(0, a.shape[0], rows):
        np.matmul(a[lo:lo + rows], b, out=out[lo:lo + rows])
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
    "matmul": _matmul,
    "transpose": lambda a, order=None: np.asarray(a.T, order=order),
    "column": lambda a, lo, hi: a[:, lo:hi],
    "concat": _concat, "guard": _guarded,
}


def _op(op, inputs, attrs=None):
    """A node whose value is op's kernel on its inputs' values; ``attrs``
    are the kernel's keyword arguments."""
    with np.errstate(all="ignore"):
        value = _KERNELS[op](*[i.value for i in inputs], **(attrs or {}))
    return Node(op, inputs, np.asarray(value), attrs)


def _elementwise(op, a, b):
    a = _wrap(a, b)
    b = _wrap(b, a)
    _check_elementwise(op, a, b)
    sa, sb = a.value.shape, b.value.shape
    # a column against a block runs column-major (see the module docstring)
    column_major = _is_column_of(sa, sb) or _is_column_of(sb, sa)
    return _op(op, (a, b), {"order": "F"} if column_major else None)


def _unary(op, a, attrs=None):
    return _op(op, (a,), attrs)


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
    return _op("matmul", (a, b))


def transpose(a, order=None):
    """The transpose of a 2-D node: a view of its array, or, for ``order``
    "C", a C-ordered array (a copy unless the view already is one).  A
    matmul's BLAS kernel follows its operands' layouts, and a C-ordered
    right operand takes the faster NN path for the network's shapes (see
    ``network.MLP.forward``).  The view transpose of a transpose is that
    transpose's input itself."""
    if a.value.ndim != 2:
        raise ShapeError(f"transpose requires a 2-D operand, got {a.value.shape}")
    if order is None and a.op == "transpose":
        return a.inputs[0]
    return _unary("transpose", a, {"order": order} if order else None)


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
    return _op("concat", tuple(pieces), {"order": order})


def _sign(x):
    """sign(x), abs's subgradient (0 at the kink); takes no gradient."""
    return _op("sign", (x,))


def _argmax_mask(x):
    """One-hot mask of x's first largest entry; takes no gradient."""
    return _op("argmax_mask", (x,))


# ops whose value is piecewise constant in their input: no tangent or
# adjoint passes through them (``_differentiable``)
_NO_GRADIENT = frozenset(("sign", "argmax_mask"))


def _guard(node, checked, check):
    """``node`` itself (same array) after ``check(*values of checked)`` has
    run; tangents and adjoints pass to ``node`` alone."""
    return _op("guard", (node, *checked), {"check": check})


def _differentiable(node):
    """The inputs through which a derivative reaches ``node``: none for a
    no-gradient op, a guard's node alone, every input otherwise.  The one
    rule of activity: ``backward`` marks a node active, and ``_tangent``
    gives it a tangent, only through these."""
    if node.op in _NO_GRADIENT:
        return ()
    return node.inputs[:1] if node.op == "guard" else node.inputs


def _below(outputs, stop=()):
    """The nodes below ``outputs`` in ``_id`` (= topological) order,
    walking back along every input edge (no-gradient and guard nodes too);
    the walk neither collects nor passes the nodes whose ids are in
    ``stop``.  The one graph walk: of ``backward``, of ``diff``'s and
    ``laplacian``'s tangent sweeps (``stop`` is a tangent memo) and of a
    recording (``_generic``)."""
    seen, stack = {}, list(outputs)
    while stack:
        n = stack.pop()
        if n._id not in seen and n._id not in stop:
            seen[n._id] = n
            stack.extend(n.inputs)
    return sorted(seen.values(), key=lambda n: n._id)


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
    operand gets None and nothing is built for it.  Only the inputs a
    derivative passes through (``_differentiable``) are asked about: a
    guard's node alone, so it gets g, and no no-gradient op is ever asked.
    Unary ops are only asked when their input is wanted.  A
    pointwise op (the arithmetic ops, the unary functions and ``dtanh``)
    gives input i the ``_jvp`` rule with g as input i's tangent; only
    structural ops have a rule here.  ``matmul``
    pairs g with a view transpose of the other operand, so no activation is
    copied for a weight gradient, and g @ W reads a C-ordered transpose's
    W itself.  ``column`` has no rule:
    ``backward`` gathers a node's column reads (``_column_adjoint``).
    ``rowsum`` hands every column g, broadcast F-ordered.
    """
    op = node.op
    if op == "guard":
        return (g,)
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


def _column_adjoint(a, reads):
    """The adjoint of ``a`` from its column-range reads alone: ``reads``
    holds ``(lo, hi, g)`` in arrival order.  A single read is g padded with
    +0.0 columns to a's width (g itself when it spans a).

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
    zero = constant(np.zeros((a.value.shape[0], 1), reads[0][2].value.dtype))
    block = concat_cols([p for s, e in segments
                         for p in ([sums[s]] if s in sums else [zero] * (e - s))])
    return add(block, 0.0) if every else block


def backward(output, wrt):
    """Differentiate a scalar output with respect to each node in ``wrt``.

    Returns one new graph node per entry of ``wrt``, all computed in a single
    reverse traversal.  The returned nodes are themselves differentiable, so
    nesting backward gives higher-order derivatives.  A wrt node unreachable
    from the output yields a zero gradient (not an error).

    Any node may be a ``wrt``.  Only the nodes a derivative of some
    ``wrt`` node reaches (``_differentiable``) get adjoints: a parameter
    gradient builds no coordinate adjoints, a coordinate derivative builds
    no weight-gradient products, and no adjoint passes through abs's sign
    or max's argmax mask.  The pruned nodes could never reach a returned
    gradient, so the results equal a full sweep bit for bit.

    The contributions a node receives from ``column``/``columns`` reads are
    held until the sweep reaches the node, or until its first dense
    contribution arrives, and then built in one piece
    (``_column_adjoint``): per-segment sums joined by one C-ordered
    concatenation, not a sum of zero-padded full-width blocks.  A range
    read that arrives after a dense contribution is built alone by the same
    function, as a padded block, and added in arrival order, as every
    contribution is.  The entries equal the padded fold's bit for bit,
    except that where two NaNs meet in one addition the sign of the NaN
    that survives depends on numpy's loop for the shapes at hand: a NaN
    entry is NaN in both, but its sign may differ.  A
    ``rowsum`` hands its adjoint to every column as one F-ordered
    broadcast, and an N x 1 operand of a column-against-block op gets its
    block adjoint folded by ``rowsum``, left to right.
    """
    if not _is_scalar(output.value):
        raise ShapeError(
            f"backward requires a scalar output, got shape {output.value.shape}"
        )
    order = _below([output])
    # one sweep in id order marks the nodes a derivative of a wrt node
    # reaches
    active = {w._id for w in wrt}
    for node in order:
        if any(inp._id in active for inp in _differentiable(node)):
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
        need = [inp._id in active for inp in _differentiable(node)]
        if not any(need):
            continue
        if node.op == "column":
            a, lo, hi = node.inputs[0], node.attrs["lo"], node.attrs["hi"]
            if a._id in adjoint:  # after a dense contribution
                adjoint[a._id] = add(adjoint[a._id],
                                     _column_adjoint(a, [(lo, hi, g)]))
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
    no term is built for it.  ``t`` holds the inputs a derivative passes
    through (``_differentiable``): a guard's node alone, and no no-gradient
    op is ever asked.  Unary ops are only asked when their input has a
    tangent.
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
        return transpose(ta, (node.attrs or {}).get("order"))
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


def _tangent(node, memo):
    """``_jvp`` of node at its shape, its inputs' tangents read from
    ``memo`` (node id -> tangent); None if no input a derivative passes
    through (``_differentiable``) has one: so for a no-gradient op, and a
    guard whose node has none."""
    t = [memo.get(inp._id) for inp in _differentiable(node)]
    if all(ti is None for ti in t):
        return None
    tn = _jvp(node, t)
    # an active scalar or row met a tensor
    if tn.value.shape != node.value.shape:
        tn = broadcast_to(tn, node.value.shape)
    return tn


def _seeded(x):
    """A tangent memo whose seed is x, any node, with a tangent of ones."""
    return {x._id: constant(np.ones_like(x.value))}


def _push_tangents(u, tangents):
    """Tangent of u, or None if u does not depend on the seed, filling the
    memo ``tangents`` (node id -> tangent node, or None for a node that does
    not depend on the seed) on the way.  The walk stops at the nodes the
    memo holds: a memo entry stands for the node's whole subgraph."""
    for node in _below([u], tangents):
        tangents[node._id] = _tangent(node, tangents)
    return tangents.get(u._id)


def diff(u, x, order=1):
    """Per-sample derivative d^order u / dx^order as a new graph node.

    u must be scalar per sample (one column); x any node with the same batch
    layout, usually a coordinate variable.  Computed in forward mode: x is
    seeded with a tangent of ones and each node's tangent is built from its
    inputs' tangents, which is the per-sample derivative because sample
    rows are independent.  Order
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
    tangents = _seeded(x)
    out = []
    g = u
    for _ in range(k):
        t = _push_tangents(g, tangents)
        g = t if t is not None else constant(np.zeros_like(g.value))
        out.append(g)
    return out


def laplacian(u, xs):
    """Per-sample Laplacian sum_i d^2 u / dx_i^2 over the coordinates ``xs``
    as a new graph node, from one forward sweep (the forward Laplacian of
    Li et al. 2023, arXiv:2307.08214).

    u and each x are as for ``diff``.  Each coordinate gets its first-order
    tangent memo, as ``diff`` builds it.  Then one walk in ``_id`` order
    gives each node n its Laplacian L(n): the linear part ``_jvp(n,
    [L(inputs)])``, one stream that every direction shares (one second-order
    matmul per layer, not one per coordinate), plus, for each x_i in the
    given order, the curvature of n along x_i: the tangent along x_i of n's
    first-order tangent T_i(n), pushed by ``_jvp`` through the nodes built
    for T_i(n) while the inputs' T_i are held at zero tangent.  The push's
    walk stops at the nodes the memo already holds, so it visits only the
    nodes built for T_i(n).

    The result equals ``sum(diff(u, x, 2) for x in xs)`` to a few ulps of
    the summed magnitudes of its terms, not bit for bit: the directions are
    added inside the sweep, node by node, not once at the end.  If u does
    not depend on any x, the result is zeros of u's shape.
    """
    memos = [_seeded(x) for x in xs]
    for tangents in memos:
        _push_tangents(u, tangents)
    lap = {}
    for node in _below([u]):
        total = _tangent(node, lap)
        for tangents in memos:
            t = tangents.get(node._id)
            if t is not None:
                total = _plus(total, _push_tangents(t, tangents))
                tangents[t._id] = None  # held at zero for n's consumers
        lap[node._id] = total
    total = lap.get(u._id)
    return total if total is not None else constant(np.zeros_like(u.value))


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

class _Program:
    """A recorded graph (see ``_record``).

    ``inputs`` is the number of input values a replay takes, ``slots`` the
    register file (the inputs' slots empty, then the kept arrays; None for
    a slot a step writes or a kept array no step reads), ``steps`` the
    ``_Step``s in run order, ``outputs`` the slots returned, and
    ``rewrites`` the number of recorded steps and what each rewrite removed
    (``into``: rewrote; ``moved``: the steps ``_in_place_order`` moved).
    ``run`` is the program's generated function (``_compile``), built when
    the program is made.
    """

    __slots__ = ("inputs", "slots", "steps", "outputs", "rewrites", "run")

    def __init__(self, inputs, slots, steps, outputs, rewrites):
        self.inputs = inputs
        self.slots = slots
        self.steps = steps
        self.outputs = outputs
        self.rewrites = rewrites
        self.run = _compile(self)


_REWRITES = ("fold", "alias", "share", "into")

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


def _alias_operand(entry, entries, consts):
    """Index of the operand that ``entry``'s step returns bit for bit, or
    None.

    ``entries`` are the recording's, which ``entry.args`` index, and
    ``consts[i]`` is input i's kept array (None if it is computed).  x * 1
    (ones on either side) and x - (+0.0) are x, when x already has the
    result's shape and dtype, and for a column against a block (whose
    result is F-ordered, whatever x's layout) its strides: a later sum or
    matmul follows the layout.  x + 0 is not: -0.0 + 0.0 is +0.0, and so
    is x - (-0.0) for x = -0.0.
    """
    if entry.op == "mul":
        pairs = ((0, 1), (1, 0))
    elif entry.op == "sub":
        pairs = ((0, 1),)
    else:
        return None
    for x, c in pairs:
        v, layout = consts[c], entries[entry.args[x]].layout
        if (v is None or layout[:2] != entry.layout[:2]
                or (entry.attrs and layout != entry.layout)):
            continue
        if (entry.op == "mul" and (v == 1).all()) or (
                entry.op == "sub" and not (v.any() or np.signbit(v).any())):
            return x
    return None


def _writable(entry, args, owned, outputs):
    """The argument slots, in order, that a step of ``entry`` reading
    ``args`` may write its result into once they die: for a 2-D ``_INTO``
    step, each operand that ``owned`` maps to the step's layout, that the
    step reads once and that is not in ``outputs``; none for another
    step."""
    if entry.op not in _INTO or len(entry.dims) != 2:
        return []
    return [a for a in args if args.count(a) == 1 and a not in outputs
            and owned.get(a) == entry.layout]


def _in_place_order(ops, owned, outputs):
    """``ops``, ``(entry, argument slots, result slot)`` in run order,
    reordered so that more pointwise steps can write into an operand; and
    the number of steps moved.

    If no operand a step may write into (``_writable``) dies at the step,
    the step moves to just after the last other reader of one of them, the
    earliest if several fit, unless a step reads its result before that
    reader.  Every move is decided on the given order and takes a step
    later, past none of its readers, so the order stays topological.  The
    ``into`` pass then picks, on the new order, the steps that write into
    an operand, as it would on any order.
    """
    first, last = {}, {}  # slot -> its first and its last reader
    for i, (_, args, _) in enumerate(ops):
        for a in args:
            first.setdefault(a, i)
            last[a] = i
    keys, moved = [(i, 0) for i in range(len(ops))], 0
    for i, (e, args, out) in enumerate(ops):
        # the last readers of the operands the step may write into
        ends = [last[a] for a in _writable(e, args, owned, outputs)]
        if ends and i not in ends and min(ends) < first.get(out, len(ops)):
            keys[i] = (min(ends), 1, i)
            moved += 1
    order = sorted(range(len(ops)), key=keys.__getitem__)
    return [ops[i] for i in order], moved


# One node of a recording (see ``_record``), in ``_id`` order.  ``args``
# index earlier entries; ``dims`` is the result's shape, None on the batch
# axis; ``layout`` is its dims, dtype and strides on each probe, which tell
# two results' layouts apart at any row count.  ``leaf`` is None for a
# step; for a leaf, its index among the inputs or, for a kept array, a
# function of the row count that makes it.
_Entry = collections.namedtuple("_Entry", "op attrs args dims layout leaf")

# A row-generic graph: its entries, the entries of its outputs and its
# number of inputs.
_Recording = collections.namedtuple("_Recording", "entries outputs inputs")


def _dims(a, b):
    """Shapes ``a`` (of the 2-row probe) and ``b`` (of the 3-row one) as
    one, with None on the batch axis, where they read 2 and 3; None if they
    differ otherwise."""
    if len(a) != len(b) or any(x != y and (x, y) != (2, 3)
                               for x, y in zip(a, b)):
        return None
    return tuple(None if x != y else x for x, y in zip(a, b))


def _at(dims, rows):
    """``dims`` with the batch axis at ``rows``."""
    return tuple(rows if d is None else d for d in dims)


def _attrs_at(attrs, rows):
    """A step's attrs at ``rows``: a ``broadcast``'s shape, the one attr
    that may hold the batch axis, at that row count."""
    if attrs and "shape" in attrs:
        return {**attrs, "shape": _at(attrs["shape"], rows)}
    return attrs


def _generic_attrs(a, b):
    """The attrs of a step on the two probes as one dict, a shape's batch
    axis as None; ``False`` if they differ otherwise.  A callable (a
    guard's check) is the 3-row probe's, since each build makes its own."""
    a, b = a or {}, b or {}
    if a.keys() != b.keys():
        return False
    out = {}
    for k, v in b.items():
        if k == "shape":
            v = _dims(a[k], v)
            if v is None:
                return False
        elif not callable(v) and repr(a[k]) != repr(v):
            return False
        out[k] = v
    return out or None


def _kept_leaf(a, b, dims):
    """A function of the row count that makes the kept array whose values
    on the 2- and 3-row probes are ``a`` and ``b`` (of shape ``dims``), or
    None if no row count explains them.  Equal arrays are that array at any
    row count.  A scalar that reads 2m and 3m is m times the row count (a
    mean's size, a loss's ``n``).  An array with a batch axis must be
    constant along it, and is that entry repeated, in the array's
    layout."""
    if None not in dims:
        if a.tobytes() == b.tobytes():
            return lambda rows: b
        m = float(a.flat[0]) / 2.0 if a.size == 1 else None
        if m is not None and float(b.flat[0]) == 3.0 * m:
            return lambda rows: np.full(b.shape, m * rows, b.dtype)
        return None
    one = b[tuple(slice(0, 1) if d is None else slice(None) for d in dims)]
    if any(np.broadcast_to(one, v.shape).tobytes() != v.tobytes()
           for v in (a, b)):
        return None
    order = "F" if b.flags.f_contiguous and not b.flags.c_contiguous else "C"

    def repeated(rows):
        out = np.empty(_at(dims, rows), b.dtype, order)
        out[...] = one
        return out
    return repeated


def _generic(probes, rows):
    """The probes' graphs, ``(outputs, inputs)`` on 2 and 3 rows (or one
    graph, twice, on all ``rows``: a kept array of ``rows`` rows then has
    the batch axis first), as one row-generic ``_Recording``: the nodes
    below the outputs (``_below``), the inputs among them being leaves.

    The graphs must agree node for node in ``_id`` order: the same op, the
    same arguments, the same input index for an input, and attrs, shapes
    and dtypes that differ only on the batch axis (where one reads 2 and
    the other 3).  Each kept leaf must be explained by the row count
    (``_kept_leaf``).  Anything else raises ``ValueError`` naming the step,
    or the step that reads the leaf, with the leaf's shape at ``rows``.
    """
    (outs_a, ins_a), (outs_b, ins_b) = probes[0], probes[-1]
    nodes_a, nodes_b = _below(outs_a), _below(outs_b)
    index_a = {n._id: k for k, n in enumerate(nodes_a)}
    index_b = {n._id: k for k, n in enumerate(nodes_b)}
    input_a = {n._id: i for i, n in enumerate(ins_a)}
    input_b = {n._id: i for i, n in enumerate(ins_b)}
    entries, dims_of = [], {}  # (shape on 2 rows, on 3 rows) -> dims
    for a, b in zip(nodes_a, nodes_b):
        shapes = (a.value.shape, b.value.shape)
        if shapes not in dims_of:
            dims_of[shapes] = _dims(*shapes)
        dims = dims_of[shapes]
        leaf = input_b.get(b._id)
        args = () if leaf is not None else tuple(index_b[i._id]
                                                 for i in b.inputs)
        attrs = (_generic_attrs(a.attrs, b.attrs) if a.attrs or b.attrs
                 else None)
        if (leaf != input_a.get(a._id) or a.op != b.op or dims is None
                or attrs is False or a.value.dtype != b.value.dtype
                or (leaf is None and args != tuple(index_a[i._id]
                                                   for i in a.inputs))):
            raise ValueError(
                f"a {b.op!r} step of shape {b.value.shape} differs between "
                f"the 2- and 3-row graphs beyond the batch axis; a recording "
                f"needs a graph whose structure does not depend on the row "
                f"count")
        if leaf is None and not args:
            if len(probes) == 1 and len(dims) == 2 and dims[0] == rows > 1:
                dims = (None, dims[1])  # one probe: its rows may be the batch
            leaf = _kept_leaf(a.value, b.value, dims)
            if leaf is None:
                reader = next(o.op for o in nodes_b
                              if any(i is b for i in o.inputs))
                raise ValueError(
                    f"a {_at(dims, rows)} constant read by {reader!r} holds "
                    "data, or a function of the row count, that a recording "
                    "would freeze; use graph ops")
        layout = (dims, b.value.dtype, a.value.strides, b.value.strides)
        entries.append(_Entry(b.op if args else None, attrs, args, dims,
                              layout, leaf))
    if len(nodes_a) != len(nodes_b):
        extra = max(nodes_a, nodes_b, key=len)[len(entries)]
        raise ValueError(
            f"a {extra.op!r} step is in one of the 2- and 3-row graphs only; "
            "a recording needs a graph whose structure does not depend on "
            "the row count")
    return _Recording(entries, [index_b[o._id] for o in outs_b], len(ins_b))


def _record(build, rows, data=()):
    """A program that recomputes the outputs of ``build(rows)`` from new
    values of the leaves ``inputs``, at ``rows`` rows; ``build(p)`` returns
    ``(outputs, inputs)`` on p rows of a batch of ``rows`` rows (on all of
    them for p = ``rows``), and the graph on all ``rows`` is never built.

    ``build`` is called on 2 and on 3 rows, and the two graphs are made one
    row-generic recording (``_generic``): they must agree everywhere except
    on the batch axis, so a kept leaf that holds data (or 1/rows) raises
    ``ValueError``.  That check sees data only where the probe rows differ,
    so the caller picks rows that differ in every column the batch varies
    in (``solver._probe_rows``): a batch's first rows may repeat a value,
    as a ``generators.Meshed`` batch's or a fixed boundary's do.  Fewer
    than 3 rows are recorded from ``build(rows)`` itself, and a kept array
    of that many rows must be constant down them, as one with the batch
    axis must be.  Any other leaf below the outputs is kept.
    ``data``, if given, holds the values at ``rows`` of the first
    ``len(data)`` inputs: the program keeps them rather than taking them,
    so it is valid for that data only (the caller records again for other
    data), and every step that reads only them and kept arrays runs once,
    at recording.  The recording is then instantiated at ``rows``
    (``_instantiate``).
    """
    probes = [build(p) for p in ((2, 3) if rows >= 3 else (rows,))]
    recording = _generic(probes, rows)
    del probes  # the probe graphs are freed before the program is made
    return _instantiate(recording, rows, data)


def _instantiate(recording, rows, data=()):
    """``recording`` (see ``_record``) at ``rows`` rows as a ``_Program``,
    with ``data`` the values of its first ``len(data)`` inputs.

    Ops run in ``_id`` order.  Each kept leaf is made at ``rows`` (one
    slot per distinct array, a compact copy that owns its data and keeps
    its layout), and so is each of ``data``.  The program is an IR: each
    ``_Step`` keeps its entry's op, attrs and result shape and dtype.
    These rewrites run once, in one pass in ``_id`` order and, after the
    steps are reordered (``_in_place_order``), one back, and each gives the
    same bits as the graph at ``rows`` would:

    - fold: a step whose arguments are all kept runs here, as the
      instantiation's prologue, and its value is kept instead (so the 1/n
      column of a loss's adjoint is computed at ``rows``);
    - alias: x * 1 and x - (+0.0) read x's slot (``_alias_operand``); x + 0
      is kept, as -0.0 + 0.0 is +0.0.  A guard whose checked arguments are
      all kept runs its check here, once, and reads its node's slot (a
      validation program's singularity check on its kept coordinates);
    - share: a step with the same op, argument slots and attrs as an earlier
      one reads that one's result (a callable attr, such as a guard's
      check, compares by identity);
    - into: a 2-D pointwise step (``_INTO``) writes its result into an
      argument it reads for the last time, passed as the kernel's ``out``
      (appended to the step's ``args``).  That argument must be one the
      step may write into (``_writable``): a block a step of this program
      wrote, no view or guard step reads and no input, kept array or
      output holds; it appears once among the arguments and has the
      result's shape, dtype and strides, so later steps see the layout the
      graph had.  An elementwise ufunc gives the same bits in
      place.  The reorder before it runs a step that has no such argument
      after the other readers of one that would be, where no step reads
      its result earlier, so that it reads that argument last (``moved``
      in ``rewrites`` counts these steps).

    No step is dead: the walk started from the outputs, and no rewrite
    above leaves a remaining step unread.  A slot is freed after its last
    read, and a kept array no step reads is not held.

    Each step's kernel is bound from ``_KERNELS`` here, and a replay calls
    exactly these (``_compile``, which runs as the program is made, so its
    transient memory is freed before any replay).  So a tracer that wraps
    ``_KERNELS`` entries before ``fit`` sees every replayed step; one that
    wraps them later sees none.
    """
    entries, fixed = recording.entries, len(data)
    slots, kept, shared, ops = [None] * (recording.inputs - fixed), {}, {}, []
    slot = []  # entry index -> slot
    counts = dict.fromkeys(("recorded",) + _REWRITES, 0)

    def keep(v):
        key = (v.dtype.str, v.shape, v.strides, v.tobytes())
        if key not in kept:
            kept[key] = len(slots)
            slots.append(v)
        return kept[key]

    with np.errstate(all="ignore"):  # the folded steps run here
        for e in entries:
            if e.op is None:  # a leaf
                if callable(e.leaf):
                    slot.append(keep(e.leaf(rows)))
                else:
                    slot.append(keep(data[e.leaf]) if e.leaf < fixed
                                else e.leaf - fixed)
                continue
            counts["recorded"] += 1
            args = tuple(slot[i] for i in e.args)
            consts = [slots[a] for a in args]  # a kept slot holds its array
            if all(c is not None for c in consts):
                value = _KERNELS[e.op](*consts,
                                       **(_attrs_at(e.attrs, rows) or {}))
                slot.append(keep(np.asarray(value)))
                counts["fold"] += 1
                continue
            if e.op == "guard" and all(c is not None for c in consts[1:]):
                # checked values that never change: the check runs once
                e.attrs["check"](*consts[1:])
                x = 0
            else:
                x = _alias_operand(e, entries, consts)
            if x is not None:
                slot.append(args[x])
                counts["alias"] += 1
                continue
            key = (e.op, args, _attrs_key(e.attrs))
            if key in shared:
                slot.append(shared[key])
                counts["share"] += 1
                continue
            slot.append(len(slots))
            shared[key] = len(slots)
            slots.append(None)
            ops.append((e, args, slot[-1]))
    out_slots = [slot[k] for k in recording.outputs]
    # the layout of each block that only its own slot holds: written by a
    # step that is not a view or guard, and read by none
    viewed = {a for e, args, _ in ops if e.op in _VIEWS for a in args}
    owned = {out: e.layout for e, _, out in ops
             if e.op not in _VIEWS and out not in viewed}
    ops, counts["moved"] = _in_place_order(ops, owned, out_slots)
    steps, used = [], set(out_slots)
    for e, args, out in reversed(ops):  # a slot's last read is met first
        attrs = _attrs_at(e.attrs, rows)
        kernel = _KERNELS[e.op]
        if attrs:
            kernel = functools.partial(kernel, **attrs)
        free = tuple(set(args) - used)
        used.update(args)
        into = next((a for a in _writable(e, args, owned, out_slots)
                     if a in free), None)
        if into is not None:
            args += (into,)
            counts["into"] += 1
        steps.append(_Step(e.op, attrs, args, out, _at(e.dims, rows),
                           e.layout[1], kernel, free))
    # a kept array is copied apart from the blocks the graph frees, and
    # only if a step reads it; a view does not pin its base, and the copy
    # keeps the value's layout (so matmul's bits)
    slots = [v.copy(order="K") if v is not None and i in used else None
             for i, v in enumerate(slots)]
    return _Program(recording.inputs - fixed, slots, steps[::-1], out_slots,
                    counts)


def _source(program):
    """The source of ``program``'s function factory, and the values of the
    factory's parameters.

    The factory takes step i's kernel as ``k{i}`` and kept slot s as
    ``r{s}``, and returns ``run``, a function of the input slots ``r0``,
    ``r1``, ....  ``run`` has one statement per step, ``r{out} =
    k{i}(r{a}, ...)``, followed by a ``del`` of the registers the step
    reads for the last time (its ``free``; a kept slot is the factory's and
    stays), and then returns the list of its output registers.
    """
    def regs(slots):
        return ", ".join(f"r{s}" for s in slots)
    kept = [s for s, v in enumerate(program.slots) if v is not None]
    kernels = ", ".join(f"k{i}" for i in range(len(program.steps)))
    lines = [f"def factory({', '.join(filter(None, (kernels, regs(kept))))}):",
             f"    def run({regs(range(program.inputs))}):"]
    for i, step in enumerate(program.steps):
        lines.append(f"        r{step.out} = k{i}({regs(step.args)})")
        dead = [s for s in step.free if program.slots[s] is None]
        if dead:
            lines.append(f"        del {regs(dead)}")
    lines.append(f"        return [{regs(program.outputs)}]")
    lines.append("    return run")
    closed = [step.kernel for step in program.steps]
    closed += [program.slots[s] for s in kept]
    return "\n".join(lines) + "\n", closed


def _compile(program):
    """``program``'s generated function (``_source``); ``_Program`` keeps
    it as ``run``.

    The factory is executed in a fresh namespace and popped out of it, so
    no reference cycle is left: the function, its code and the closure
    cells holding the kernels and kept arrays are freed by reference
    counting together with the program.
    """
    source, closed = _source(program)
    namespace = {}
    exec(compile(source, "<program>", "exec"), namespace)
    return namespace.pop("factory")(*closed)


def _replay(program, values):
    """Run a recorded program on new values of its inputs, given in the
    order of the inputs ``_record``'s build returned, less those whose
    values it was given as ``data``; returns the values of its outputs.
    Calls the program's generated function (``_compile``), which runs the
    steps' kernels in order and drops each register at its last read, with
    numpy's floating-point warnings off.  Raises ``ValueError`` if the
    number of values is not the program's number of inputs."""
    if len(values) != program.inputs:
        raise ValueError(f"the program takes {program.inputs} input values, "
                         f"got {len(values)}")
    with np.errstate(all="ignore"):
        return program.run(*values)
