"""Executable-Python code generation.

The paper's compiler emits C for each node; our equivalent target is
Python source, generated from the IR and compiled with ``exec``.  The
generated code is semantically identical to the tree-walking interpreter
(:mod:`repro.ir.interp`) but runs an order of magnitude faster, which the
benchmark harness and the cross-validation tests exploit.

Exact rational bound arithmetic is preserved: a bound whose affine
expression has denominator ``L`` is emitted as an integer numerator
expression with an explicit floor/ceiling division by ``L``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.codegen.locality import RefClass
from repro.errors import CodegenError
from repro.ir.affine import AffineExpr
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.scalar import BinOp, Const, IndexValue, Load, Param, ScalarExpr
from repro.ir.stmt import Assign, BlockRead, IfThen, Statement
from repro.linalg.intmat import vector_lcm


def _numerator_text(expr: AffineExpr, scale: int) -> str:
    """Render ``scale * expr`` (guaranteed integral) as a Python int expression."""
    parts: List[str] = []
    for name, coeff in expr.coeffs.items():
        value = coeff * scale
        if value.denominator != 1:
            raise CodegenError(f"scale {scale} does not clear {expr}")
        parts.append(f"{int(value)}*{name}")
    const = expr.const * scale
    if const.denominator != 1:
        raise CodegenError(f"scale {scale} does not clear {expr}")
    if int(const) or not parts:
        parts.append(str(int(const)))
    return " + ".join(parts).replace("+ -", "- ")


def _denominator(expr: AffineExpr) -> int:
    values = [expr.const.denominator] + [c.denominator for c in expr.coeffs.values()]
    return vector_lcm(values) or 1


def _floor_text(expr: AffineExpr) -> str:
    den = _denominator(expr)
    num = _numerator_text(expr, den)
    if den == 1:
        return f"({num})"
    return f"(({num}) // {den})"


def _ceil_text(expr: AffineExpr) -> str:
    den = _denominator(expr)
    num = _numerator_text(expr, den)
    if den == 1:
        return f"({num})"
    return f"(-((-({num})) // {den}))"


def _value_text(expr: AffineExpr) -> str:
    """Render the exact value of an affine expression (int or exact float)."""
    den = _denominator(expr)
    num = _numerator_text(expr, den)
    if den == 1:
        return f"({num})"
    return f"(({num}) / {den})"


def _int_value_text(expr: AffineExpr) -> str:
    """Render an affine expression known to be integral at run time."""
    den = _denominator(expr)
    num = _numerator_text(expr, den)
    if den == 1:
        return f"({num})"
    return f"(({num}) // {den})"


def _scalar_text(expr: ScalarExpr) -> str:
    if isinstance(expr, Const):
        if expr.value.denominator == 1:
            return str(int(expr.value))
        return f"({expr.value.numerator} / {expr.value.denominator})"
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, IndexValue):
        return _value_text(expr.expr)
    if isinstance(expr, Load):
        subs = ", ".join(_int_value_text(s) for s in expr.ref.subscripts)
        return f"_arr_{expr.ref.array}[{subs}]"
    if isinstance(expr, BinOp):
        return f"({_scalar_text(expr.left)} {expr.op} {_scalar_text(expr.right)})"
    raise CodegenError(f"cannot emit Python for {expr!r}")


def _statement_lines(statement: Statement, pad: str) -> List[str]:
    if isinstance(statement, Assign):
        subs = ", ".join(_int_value_text(s) for s in statement.lhs.subscripts)
        return [f"{pad}_arr_{statement.lhs.array}[{subs}] = {_scalar_text(statement.rhs)}"]
    if isinstance(statement, IfThen):
        tests = []
        for cond in statement.conditions:
            tests.append(
                f"({_int_value_text(cond.expr)} % {_int_value_text(cond.modulus)}"
                f" == {_int_value_text(cond.target)} % {_int_value_text(cond.modulus)})"
            )
        joiner = " or " if statement.disjunctive else " and "
        lines = [f"{pad}if {joiner.join(tests)}:"]
        lines.extend(_statement_lines(statement.body, pad + "    "))
        return lines
    if isinstance(statement, BlockRead):
        return [f"{pad}pass  # read {statement.array} block (data movement only)"]
    raise CodegenError(f"cannot emit Python for {statement!r}")


def emit_python(program: Program, function_name: str = "run") -> str:
    """Generate Python source implementing the program's loop nest.

    The function signature is ``run(arrays, params)`` where ``arrays`` maps
    array names to numpy ndarrays and ``params`` binds every symbolic
    parameter.
    """
    nest: LoopNest = program.nest
    lines: List[str] = [
        f"def {function_name}(arrays, params):",
        '    """Generated by repro.codegen.pycodegen; do not edit."""',
    ]
    for name in nest.array_names():
        lines.append(f"    _arr_{name} = arrays['{name}']")
    free = set(nest.free_variables())
    for statement in nest.body:
        _collect_params(statement, free)
    for loop in nest.loops:
        for statement in loop.prologue:
            _collect_params(statement, free)
    free -= set(nest.indices)
    for name in sorted(free):
        lines.append(f"    {name} = params['{name}']")

    pad = "    "
    for loop in nest.loops:
        lowers = [_ceil_text(e) for e in loop.lower]
        uppers = [_floor_text(e) for e in loop.upper]
        low = lowers[0] if len(lowers) == 1 else "max(" + ", ".join(lowers) + ")"
        high = uppers[0] if len(uppers) == 1 else "min(" + ", ".join(uppers) + ")"
        lines.append(f"{pad}_lo = {low}")
        if loop.align is not None:
            offset = _int_value_text(loop.align)
            lines.append(f"{pad}_lo = _lo + (({offset} - _lo) % {loop.step})")
        lines.append(
            f"{pad}for {loop.index} in range(_lo, {high} + 1, {loop.step}):"
        )
        pad += "    "
        for statement in loop.prologue:
            lines.extend(_statement_lines(statement, pad))
    for statement in nest.body:
        lines.extend(_statement_lines(statement, pad))
    lines.append("    return arrays")
    return "\n".join(lines) + "\n"


def _collect_params(statement: Statement, out: set) -> None:
    """Collect every symbol a statement can mention at run time."""
    if isinstance(statement, Assign):
        _scalar_params(statement.rhs, out)
        for sub in statement.lhs.subscripts:
            out.update(sub.variables())
    elif isinstance(statement, IfThen):
        for cond in statement.conditions:
            out.update(cond.expr.variables())
            out.update(cond.modulus.variables())
            out.update(cond.target.variables())
        _collect_params(statement.body, out)
    elif isinstance(statement, BlockRead):
        for entry in statement.pattern:
            if entry is not None:
                out.update(entry.variables())


def _scalar_params(expr: ScalarExpr, out: set) -> None:
    if isinstance(expr, Param):
        out.add(expr.name)
    elif isinstance(expr, IndexValue):
        out.update(expr.expr.variables())
    elif isinstance(expr, Load):
        for sub in expr.ref.subscripts:
            out.update(sub.variables())
    elif isinstance(expr, BinOp):
        _scalar_params(expr.left, out)
        _scalar_params(expr.right, out)


def compile_program(
    program: Program, function_name: str = "run"
) -> Callable[[Dict, Optional[Mapping[str, int]]], Dict]:
    """Compile a program to a fast Python callable ``f(arrays, params)``.

    ``params`` defaults to the program's own parameter bindings.
    """
    source = emit_python(program, function_name)
    namespace: Dict = {}
    exec(compile(source, f"<generated {program.name}>", "exec"), namespace)
    generated = namespace[function_name]

    def runner(arrays: Dict, params: Optional[Mapping[str, int]] = None) -> Dict:
        return generated(arrays, program.bound_params(params))

    runner.source = source  # type: ignore[attr-defined]
    return runner


# ----------------------------------------------------------------------
# tier 2 of the accounting engine: the compiled accounting kernel
# ----------------------------------------------------------------------
#
# ``emit_accounting_kernel`` specializes the simulator's account-mode walk
# (:class:`repro.numa.simulator._ProcWalker`) for one node program:
# straight-line Python with precomputed integer slopes, hoisted block
# bounds and read byte counts, the distributed-loop schedule unrolled into
# a plain ``range``, and the innermost loop collapsed to congruence /
# interval counting whenever the walk's own analytic summary would fire.
# It must be *bit-identical* to the interpreter walk on every counter —
# including the exact ``SimulationError`` messages for non-integral
# subscripts, guards and alignments — because the fuzz oracle and the tier
# equivalence tests diff the two.  All internal names carry a ``_``
# prefix so they cannot collide with loop indices or program parameters
# (the processor parameter is literally ``p``).


class _KernelEmitter:
    """Builds the accounting-kernel source for one node program."""

    def __init__(self, node, block_cache: bool):
        self.node = node
        self.nest = node.nest
        self.block_cache = block_cache
        program = node.program
        self.decls = {decl.name: decl for decl in program.arrays}
        self.element_bytes = {
            decl.name: decl.element_bytes for decl in program.arrays
        }
        self.distributions = program.distributions
        self.ref_classes = {
            (info.ref, info.is_write): info.ref_class
            for info in node.plan.refs
        }
        self.lines: List[str] = []
        self.temp = 0
        self.blocked_arrays: List[str] = []  # hoisted block-bound arrays
        self.read_bytes: List[str] = []  # hoisted byte-count expressions
        self.gather_arrays: List[str] = []

    # -- small helpers -------------------------------------------------
    def _fresh(self, stem: str) -> str:
        self.temp += 1
        return f"_{stem}{self.temp}"

    def _exact(self, expr: AffineExpr, pad: str, error: str) -> str:
        """Emit an exact integer evaluation; raise ``error`` if fractional."""
        den = _denominator(expr)
        num = _numerator_text(expr, den)
        if den == 1:
            return f"({num})"
        tmp = self._fresh("x")
        self.lines.append(f"{pad}{tmp} = {num}")
        self.lines.append(f"{pad}if {tmp} % {den}:")
        self.lines.append(f"{pad}    raise SimulationError({error!r})")
        self.lines.append(f"{pad}{tmp} //= {den}")
        return tmp

    def _hoist_blocked(self, array: str, dim: int) -> str:
        """Register an array for hoisted blocked ownership bounds."""
        tag = f"{array}_{dim}"
        if tag not in self.blocked_arrays:
            self.blocked_arrays.append(tag)
        return tag

    def _ref_kind(self, ref, is_write):
        """Classify one reference the way the walker's charge compiler does."""
        rc = self.ref_classes.get((ref, is_write), RefClass.CHECK)
        if rc in (RefClass.LOCAL, RefClass.COVERED):
            return ("free", None, None)
        distribution = self.distributions.get(ref.array)
        if distribution is None or not distribution.distribution_dims():
            return ("free", None, None)
        dims = distribution.distribution_dims()
        kind = type(distribution).__name__
        if len(dims) != 1 or kind not in ("Wrapped", "Blocked"):
            raise CodegenError(
                f"reference {ref} under '{distribution.describe()}' needs "
                "owner enumeration"
            )
        return (
            "wrapped" if kind == "Wrapped" else "blocked",
            ref.subscripts[dims[0]],
            dims[0],
        )

    # -- statements ----------------------------------------------------
    def _charge(self, ref, is_write, pad: str) -> None:
        kind, subscript, dim = self._ref_kind(ref, is_write)
        if kind == "free":
            self.lines.append(f"{pad}_c_local += 1")
            return
        where = f"subscript '{subscript}' of array {ref.array!r}"
        value = self._exact(
            subscript, pad, f"non-integral {where} in {kind} ownership test"
        )
        if kind == "wrapped":
            self.lines.append(f"{pad}if {value} % _P == _p:")
        else:
            tag = self._hoist_blocked(ref.array, dim)
            self.lines.append(
                f"{pad}if _lob_{tag} <= {value} <= _hib_{tag}:"
            )
        self.lines.append(f"{pad}    _c_local += 1")
        self.lines.append(f"{pad}else:")
        self.lines.append(f"{pad}    _c_remote += 1")

    def _statement(self, statement: Statement, pad: str) -> None:
        if isinstance(statement, Assign):
            self.lines.append(f"{pad}_c_stmts += 1")
            self._charge(statement.lhs, True, pad)
            for ref in statement.rhs.references():
                self._charge(ref, False, pad)
            return
        if isinstance(statement, IfThen):
            conditions = statement.conditions
            self.lines.append(f"{pad}_c_guards += {len(conditions)}")
            self._guard_chain(statement, 0, pad)
            self.lines.append(f"{pad}if _taken:")
            self._statement(statement.body, pad + "    ")
            return
        raise CodegenError(f"cannot emit accounting for {statement!r}")

    def _guard_chain(self, statement: IfThen, k: int, pad: str) -> None:
        """Short-circuit guard evaluation, one nesting level per condition."""
        conditions = statement.conditions
        if k == len(conditions):
            # Every condition was evaluated without deciding: a conjunction
            # with all hits is taken, a disjunction with no hits is not.
            self.lines.append(f"{pad}_taken = {not statement.disjunctive}")
            return
        cond = conditions[k]
        error = f"non-integral value in guard '{cond}'"
        mod = self._exact(cond.modulus, pad, error)
        lhs = self._exact(cond.expr, pad, error)
        rhs = self._exact(cond.target, pad, error)
        hit = f"{lhs} % {mod} == {rhs} % {mod}"
        if statement.disjunctive:
            self.lines.append(f"{pad}if {hit}:")
            self.lines.append(f"{pad}    _taken = True")
            self.lines.append(f"{pad}else:")
            self._guard_chain(statement, k + 1, pad + "    ")
        else:
            self.lines.append(f"{pad}if {hit}:")
            self._guard_chain(statement, k + 1, pad + "    ")
            self.lines.append(f"{pad}else:")
            self.lines.append(f"{pad}    _taken = False")

    # -- block reads ---------------------------------------------------
    def _block_read(self, statement: BlockRead, pad: str) -> None:
        array = statement.array
        if array not in self.decls:
            raise CodegenError(f"array {array!r} has no declared shape")
        distribution = self.distributions.get(array)
        if distribution is None or not distribution.distribution_dims():
            return  # fully local slice: no data movement
        dims = distribution.distribution_dims()
        if all(statement.pattern[d] is None for d in dims):
            self._gather(statement, pad)
            return
        kind = type(distribution).__name__
        if len(dims) != 1 or kind not in ("Wrapped", "Blocked"):
            raise CodegenError(
                f"block read of {array!r} under '{distribution.describe()}' "
                "needs owner enumeration"
            )
        index = len(self.read_bytes)
        factors = [
            f"_shapes['{array}'][{dim}]"
            for dim, entry in enumerate(statement.pattern)
            if entry is None
        ]
        elements = " * ".join(factors) if factors else "1"
        self.read_bytes.append(
            f"    _nb{index} = ({elements}) * "
            f"{self.element_bytes.get(array, 8)}"
        )
        probe = statement.pattern[dims[0]]
        value = self._exact(probe, pad, (
            f"non-integral subscript '{probe}' of array {array!r} in "
            f"{kind.lower()} ownership test"
        ))
        if kind == "Wrapped":
            self.lines.append(f"{pad}if {value} % _P != _p:")
        else:
            tag = self._hoist_blocked(array, dims[0])
            self.lines.append(
                f"{pad}if not (_lob_{tag} <= {value} <= _hib_{tag}):"
            )
        inner = pad + "    "
        if self.block_cache:
            entries = ", ".join(
                "0" if entry is None else _int_value_text(entry)
                for entry in statement.pattern
            )
            comma = "," if len(statement.pattern) == 1 else ""
            key = self._fresh("k")
            self.lines.append(f"{inner}{key} = ('{array}', ({entries}{comma}))")
            self.lines.append(f"{inner}if {key} not in _cache:")
            inner += "    "
            self.lines.append(f"{inner}_cache.add({key})")
        self.lines.append(f"{inner}_c_bt += 1")
        self.lines.append(f"{inner}_c_bb += _nb{index}")

    def _gather(self, statement: BlockRead, pad: str) -> None:
        g = len(self.gather_arrays)
        self.gather_arrays.append(statement.array)
        test = f"_gr{g} > 0"
        inner = pad + "    "
        if self.block_cache:
            self.lines.append(
                f"{pad}if {test} and ('{statement.array}', 'gather') "
                "not in _cache:"
            )
            self.lines.append(
                f"{inner}_cache.add(('{statement.array}', 'gather'))"
            )
        else:
            self.lines.append(f"{pad}if {test}:")
        self.lines.append(f"{inner}_c_bt += _gm{g}")
        self.lines.append(f"{inner}_c_bb += _gb{g}")

    # -- loops ---------------------------------------------------------
    def _bounds(self, loop, pad: str, level: int) -> Tuple[str, str]:
        lowers = [_ceil_text(e) for e in loop.lower]
        uppers = [_floor_text(e) for e in loop.upper]
        low = lowers[0] if len(lowers) == 1 else "max(" + ", ".join(lowers) + ")"
        high = uppers[0] if len(uppers) == 1 else "min(" + ", ".join(uppers) + ")"
        first = f"_first{level}"
        hi = f"_hi{level}"
        self.lines.append(f"{pad}{first} = {low}")
        self.lines.append(f"{pad}{hi} = {high}")
        if loop.align is not None:
            offset = self._exact(
                loop.align, pad, "alignment expression is not integral"
            )
            self.lines.append(
                f"{pad}{first} = {first} + "
                f"(({offset} - {first}) % {loop.step})"
            )
        return first, hi

    def _level(self, level: int, pad: str) -> None:
        nest = self.nest
        loop = nest.loops[level]
        if level == nest.depth - 1 and self._summary_plan is not None:
            self._innermost_summary(level, pad)
            return
        first, hi = self._bounds(loop, pad, level)
        index = loop.index
        step = loop.step
        if level > 0 or self.node.schedule == "all":
            self.lines.append(
                f"{pad}for {index} in range({first}, {hi} + 1, {step}):"
            )
            body_pad = pad + "    "
        elif self.node.schedule == "wrapped":
            if step == 1:
                self.lines.append(
                    f"{pad}if {first} <= {hi}:"
                )
                self.lines.append(
                    f"{pad}    {first} += (_p - {first}) % _P"
                )
                self.lines.append(
                    f"{pad}for {index} in range({first}, {hi} + 1, _P):"
                )
            else:
                self.lines.append(
                    f"{pad}for {index} in range("
                    f"{first} + {step} * _p, {hi} + 1, {step} * _P):"
                )
            body_pad = pad + "    "
        else:  # blocked
            self.lines.append(f"{pad}if {first} <= {hi}:")
            pad += "    "
            self.lines.append(
                f"{pad}_trips{level} = ({hi} - {first}) // {step} + 1"
            )
            self.lines.append(
                f"{pad}_blkq{level} = -(-_trips{level} // _P)"
            )
            self.lines.append(
                f"{pad}for _q{level} in range(_p * _blkq{level}, "
                f"min(_trips{level}, (_p + 1) * _blkq{level})):"
            )
            body_pad = pad + "    "
            self.lines.append(
                f"{body_pad}{index} = {first} + {step} * _q{level}"
            )
        if level == 0 and self.node.sync_per_outer_iteration:
            self.lines.append(
                f"{body_pad}_c_syncs += {self.node.sync_per_outer_iteration}"
            )
        for statement in loop.prologue:
            self._block_read(statement, body_pad)
        if level == nest.depth - 1:
            self.lines.append(f"{body_pad}_c_iters += 1")
            for statement in nest.body:
                self._statement(statement, body_pad)
        else:
            self._level(level + 1, body_pad)

    # -- analytic innermost summary ------------------------------------
    def _compile_summary_plan(self):
        """Mirror the walker's ``analytic_inner`` eligibility test."""
        nest = self.nest
        if nest.depth < 2 or nest.loops[-1].prologue:
            return None
        if not all(isinstance(s, Assign) for s in nest.body):
            return None
        index = nest.loops[-1].index
        plan = []
        for statement in nest.body:
            for ref, is_write in (
                [(statement.lhs, True)]
                + [(r, False) for r in statement.rhs.references()]
            ):
                try:
                    kind, subscript, dim = self._ref_kind(ref, is_write)
                except CodegenError:
                    return None
                if kind == "free":
                    plan.append(("free", 0, None, None, None, None))
                    continue
                slope = subscript.coeff(index)
                if slope.denominator != 1:
                    return None
                rest = subscript - slope * AffineExpr.var(index)
                plan.append((kind, int(slope), rest, ref.array, dim, subscript))
        return plan

    def _innermost_summary(self, level: int, pad: str) -> None:
        """Collapse the innermost loop exactly like the walk's summary,
        which never declines: a remainder that is not integral raises the
        walk's error for the first such reference."""
        loop = self.nest.loops[level]
        first, hi = self._bounds(loop, pad, level)
        step = loop.step
        self.lines.append(f"{pad}if {first} <= {hi}:")
        pad += "    "
        trips = f"_trips{level}"
        self.lines.append(f"{pad}{trips} = ({hi} - {first}) // {step} + 1")
        rests = [
            None if kind == "free" else self._exact(rest, pad, (
                f"non-integral subscript '{subscript}' of array {array!r} "
                f"in {kind} ownership test"
            ))
            for kind, _, rest, array, _, subscript in self._summary_plan
        ]
        self.lines.append(f"{pad}_c_iters += {trips}")
        self.lines.append(f"{pad}_c_stmts += {trips} * {len(self.nest.body)}")
        for k, (kind, slope, _, array, dim, _) in enumerate(self._summary_plan):
            if kind == "free":
                self.lines.append(f"{pad}_c_local += {trips}")
                continue
            n = f"_n{level}_{k}"
            if kind == "wrapped":
                self.lines.append(
                    f"{pad}{n} = _count_congruent({slope}, {rests[k]}, "
                    f"{first}, {step}, {trips}, _P, _p)"
                )
            else:
                tag = self._hoist_blocked(array, dim)
                self.lines.append(
                    f"{pad}{n} = _count_in_interval({slope}, "
                    f"{rests[k]}, {first}, {step}, {trips}, _lob_{tag}, "
                    f"_hib_{tag})"
                )
            self.lines.append(f"{pad}_c_local += {n}")
            self.lines.append(f"{pad}_c_remote += {trips} - {n}")

    # -- top level -----------------------------------------------------
    def emit(self, function_name: str) -> str:
        nest = self.nest
        if nest.depth == 0:
            raise CodegenError("cannot compile an empty loop nest")
        if self.node.schedule not in ("wrapped", "blocked", "all"):
            raise CodegenError(f"unknown schedule {self.node.schedule!r}")
        self._summary_plan = self._compile_summary_plan()
        header = [
            f"def {function_name}(_env, _P, _p, _shapes, _gathers, _cache):",
            '    """Generated by repro.codegen.pycodegen; do not edit."""',
            "    _c_local = _c_remote = _c_bt = _c_bb = 0",
            "    _c_guards = _c_stmts = _c_iters = _c_syncs = 0",
        ]
        free = set(nest.free_variables())
        for statement in nest.body:
            _collect_params(statement, free)
        for loop in nest.loops:
            for statement in loop.prologue:
                _collect_params(statement, free)
        free -= set(nest.indices)
        binds = [f"    {name} = _env['{name}']" for name in sorted(free)]

        self.lines = []
        self._level(0, "    ")
        body = self.lines
        self.lines = []  # hoists emitted during body generation go first

        gathers = [
            f"    _gm{g}, _gb{g}, _gr{g} = _gathers[{g}]"
            for g in range(len(self.gather_arrays))
        ]
        hoists = []
        for tag in self.blocked_arrays:
            array, _, dim = tag.rpartition("_")
            hoists.append(
                f"    _blk_{tag} = -(-_shapes['{array}'][{dim}] // _P)"
            )
            hoists.append(f"    _lob_{tag} = _p * _blk_{tag}")
            hoists.append(f"    _hib_{tag} = _lob_{tag} + _blk_{tag} - 1")
        lines = (
            header + binds + gathers + self.read_bytes + hoists + body
            + [
                "    return (_c_local, _c_remote, _c_bt, _c_bb,",
                "            _c_guards, _c_stmts, _c_iters, _c_syncs)",
            ]
        )
        return "\n".join(lines) + "\n"


def emit_accounting_kernel(
    node, *, block_cache: bool = False, function_name: str = "account"
) -> str:
    """Emit the tier-2 accounting kernel for one node program.

    The generated function has the signature
    ``account(_env, _P, _p, _shapes, _gathers, _cache)`` and returns the
    8-tuple ``(local, remote, block_transfers, block_bytes, guards,
    statements, iterations, syncs)`` in
    :class:`~repro.numa.simulator.AccessCounts` field order.  ``_gathers``
    supplies per-processor ``(messages, bytes, remote_elements)`` triples
    for each whole-array gather, aligned with the ``gather_arrays``
    attribute of :func:`compile_accounting`; ``_cache`` is the
    per-processor block cache set (ignored when the kernel was emitted
    with ``block_cache=False``).

    Raises :class:`~repro.errors.CodegenError` for nests the kernel cannot
    specialize (owner enumeration under exotic distributions, unknown
    statement forms) — the simulator then falls back to the walk.
    """
    return _KernelEmitter(node, block_cache).emit(function_name)


def compile_accounting(node, *, block_cache: bool = False):
    """Compile the tier-2 accounting kernel to a callable.

    The callable carries ``source`` (the generated text) and
    ``gather_arrays`` (array names of whole-array gathers, in the order
    the kernel's ``_gathers`` argument expects their per-processor
    ``(messages, bytes, remote_elements)`` triples).
    """
    from repro.errors import SimulationError
    from repro.linalg.progression import count_congruent, count_in_interval

    emitter = _KernelEmitter(node, block_cache)
    source = emitter.emit("account")
    namespace: Dict = {
        "SimulationError": SimulationError,
        "_count_congruent": count_congruent,
        "_count_in_interval": count_in_interval,
    }
    exec(
        compile(source, f"<accounting {node.program.name}>", "exec"),
        namespace,
    )
    kernel = namespace["account"]
    kernel.source = source
    kernel.gather_arrays = tuple(emitter.gather_arrays)
    return kernel
