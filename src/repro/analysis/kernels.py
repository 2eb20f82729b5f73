"""AST-level sanitizer for generated accounting code (``KERN001``-``KERN005``).

Tiers 0 and 2 of the accounting engine answer cells by *executing
generated Python*: the per-node kernel emitted by
:class:`repro.codegen.pycodegen._KernelEmitter` and the fused form
evaluator emitted by :func:`repro.linalg.sympoly.compile_account` (the
``form`` artifact — the code ``SymbolicEngine.account`` runs).  Both ride
through ``exec``, so nothing reviews the text they produce — a codegen
regression shows up only as wrong counts (caught dynamically) or as
silent waste (caught by nobody).  This pass parses the generated source
back into an AST and checks it like a reviewer would:

* ``KERN001`` — an assignment inside a generated loop whose right-hand
  side does not depend on any loop variable: hoistable work executed
  once per iteration (the exact inefficiency the ROADMAP names for the
  tier-0 residual ``BoundedSum`` loops, fixed in the form emitter by
  invariant hoisting — the check keeps it fixed);
* ``KERN002`` — a local assigned but never read: dead codegen output
  (``for`` targets are exempt — a counted-repeat loop must bind one
  even when strength reduction moved every use onto induction
  registers);
* ``KERN003`` — a dead branch: a constant ``if`` test, or a test
  identical to an enclosing test none of whose operands changed in
  between;
* ``KERN004`` — an ownership test whose *kind* (cyclic ``% P == p``
  congruence vs. blocked interval bounds) does not occur in the node
  program's distributions: the kernel is checking ownership the program
  does not have;
* ``KERN005`` — informational: the nest has no compiled kernel at all
  (the simulator falls back down the tier ladder).

All checks run on source text, so injected-defect tests can sanitize a
mutated kernel directly through :func:`sanitize_generated_source`.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity, Span

if TYPE_CHECKING:
    from repro.analysis.manager import AnalysisContext
    from repro.codegen.spmd import NodeProgram

__all__ = [
    "KernelPass",
    "expected_ownership",
    "sanitize_generated_source",
]


def _target_names(node: ast.expr) -> Set[str]:
    """Names bound by an assignment target (tuple targets included)."""
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store)
    }


def _loaded_names(node: ast.AST) -> Set[str]:
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    }


def _stored_names(node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            out.add(child.id)
        elif isinstance(child, ast.For):
            out |= _target_names(child.target)
    return out


def sanitize_generated_source(
    source: str,
    *,
    artifact: str,
    program: str = "",
    expected: Optional[Set[str]] = None,
) -> List[Diagnostic]:
    """Sanitize one generated-code artifact.

    ``artifact`` labels the span (``"kernel"`` or ``"form"``);
    ``expected`` is the set of ownership-test kinds (``"wrapped"`` /
    ``"blocked"``) the node program can legitimately need, or ``None``
    to skip the ownership check (tier-0 form code tests no ownership).
    Spans carry the generated-source line number in ``statement``.
    """
    tree = ast.parse(source)
    diagnostics: List[Diagnostic] = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        _check_unused_locals(func, artifact, program, diagnostics)
        _check_loop_invariants(func, artifact, program, diagnostics)
        _check_dead_branches(func, artifact, program, diagnostics)
        if expected is not None:
            _check_ownership(func, expected, artifact, program, diagnostics)
    return diagnostics


def _span(artifact: str, program: str, line: int) -> Span:
    return Span(program=program, statement=line, reference=artifact)


# ----------------------------------------------------------------------
# KERN002: locals assigned but never read
# ----------------------------------------------------------------------

def _check_unused_locals(
    func: ast.FunctionDef,
    artifact: str,
    program: str,
    diagnostics: List[Diagnostic],
) -> None:
    arguments = {arg.arg for arg in func.args.args}
    first_store: Dict[str, int] = {}
    loaded: Set[str] = set()
    repeat_targets: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node.ctx, ast.Store):
                first_store.setdefault(node.id, node.lineno)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            # A counted-repeat loop has to bind a target even when the
            # body reads only induction registers, never the index.
            repeat_targets.add(node.target.id)
    for name in sorted(first_store):
        if name in loaded or name in arguments or name in repeat_targets:
            continue
        diagnostics.append(
            Diagnostic(
                "KERN002",
                Severity.WARNING,
                f"local {name!r} is assigned but never read",
                _span(artifact, program, first_store[name]),
            )
        )


# ----------------------------------------------------------------------
# KERN001: loop-invariant computation inside a generated loop
# ----------------------------------------------------------------------

def _check_loop_invariants(
    func: ast.FunctionDef,
    artifact: str,
    program: str,
    diagnostics: List[Diagnostic],
) -> None:
    # Collect, per loop, the simple assignments whose *innermost*
    # enclosing loop it is — an invariant assignment is reported against
    # the loop it should be hoisted out of, once.
    loops: List[Tuple[ast.For, List[ast.Assign]]] = []

    def visit(statements: Sequence[ast.stmt], sink: Optional[List[ast.Assign]]) -> None:
        for statement in statements:
            if isinstance(statement, ast.For):
                inner: List[ast.Assign] = []
                loops.append((statement, inner))
                visit(statement.body, inner)
                visit(statement.orelse, sink)
            elif isinstance(statement, ast.If):
                visit(statement.body, sink)
                visit(statement.orelse, sink)
            elif isinstance(statement, ast.Assign) and sink is not None:
                sink.append(statement)

    visit(func.body, None)

    for loop, assigns in loops:
        varying = _target_names(loop.target)
        store_counts: Dict[str, int] = {}
        simple: List[ast.Assign] = []
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign):
                # Accumulators change with every iteration by definition.
                varying |= _target_names(node.target)
            elif isinstance(node, ast.For) and node is not loop:
                varying |= _target_names(node.target)
            elif isinstance(node, ast.Assign):
                names = set()
                for target in node.targets:
                    names |= _target_names(target)
                for name in names:
                    store_counts[name] = store_counts.get(name, 0) + 1
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    simple.append(node)
                else:
                    varying |= names  # tuple unpacking: treat as opaque
        # A name assigned at several sites may take different values on
        # different paths — conservatively varying.
        varying |= {name for name, count in store_counts.items() if count > 1}
        changed = True
        while changed:
            changed = False
            for node in simple:
                target = node.targets[0]
                assert isinstance(target, ast.Name)
                if target.id in varying:
                    continue
                if _loaded_names(node.value) & varying:
                    varying.add(target.id)
                    changed = True
        for node in assigns:
            target = node.targets[0] if len(node.targets) == 1 else None
            if not isinstance(target, ast.Name) or target.id in varying:
                continue
            loads = _loaded_names(node.value)
            if not loads or loads & varying:
                continue  # pure constants are free; varying RHS is not hoistable
            diagnostics.append(
                Diagnostic(
                    "KERN001",
                    Severity.WARNING,
                    f"'{target.id} = ...' does not depend on the loop "
                    f"variable(s) {', '.join(sorted(_target_names(loop.target)))}"
                    " — hoistable above the loop",
                    _span(artifact, program, node.lineno),
                )
            )


# ----------------------------------------------------------------------
# KERN003: dead branches
# ----------------------------------------------------------------------

def _check_dead_branches(
    func: ast.FunctionDef,
    artifact: str,
    program: str,
    diagnostics: List[Diagnostic],
) -> None:
    def visit(statements: Sequence[ast.stmt], active: Dict[str, Set[str]]) -> None:
        for statement in statements:
            stored = _stored_names(statement)
            if stored:
                for dump in [
                    key for key, names in active.items() if names & stored
                ]:
                    del active[dump]
            if isinstance(statement, ast.If):
                test = statement.test
                if isinstance(test, ast.Constant):
                    diagnostics.append(
                        Diagnostic(
                            "KERN003",
                            Severity.WARNING,
                            f"branch test is the constant {test.value!r}; "
                            "one side of the branch is dead",
                            _span(artifact, program, statement.lineno),
                        )
                    )
                    visit(statement.body, dict(active))
                    visit(statement.orelse, dict(active))
                    continue
                dump = ast.dump(test)
                if dump in active:
                    diagnostics.append(
                        Diagnostic(
                            "KERN003",
                            Severity.WARNING,
                            "branch test repeats an enclosing test whose "
                            "operands have not changed; the else branch "
                            "is dead",
                            _span(artifact, program, statement.lineno),
                        )
                    )
                child = dict(active)
                child[dump] = _loaded_names(test)
                visit(statement.body, child)
                visit(statement.orelse, dict(active))
            elif isinstance(statement, ast.For):
                # Entries surviving the store-invalidation above are
                # loop-invariant, so they remain decided inside the body.
                visit(statement.body, dict(active))
                visit(statement.orelse, dict(active))

    visit(func.body, {})


# ----------------------------------------------------------------------
# KERN004: ownership tests the program does not call for
# ----------------------------------------------------------------------

def _observed_ownership(func: ast.FunctionDef) -> Dict[str, int]:
    """Ownership-test kinds the kernel text performs -> first line."""
    observed: Dict[str, int] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Mod)
            and isinstance(node.left.right, ast.Name)
            and node.left.right.id == "_P"
            and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id == "_p"
        ):
            observed.setdefault("wrapped", node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "_count_congruent":
                observed.setdefault("wrapped", node.lineno)
            elif node.func.id == "_count_in_interval":
                observed.setdefault("blocked", node.lineno)
        elif isinstance(node, ast.Name) and node.id.startswith(
            ("_lob_", "_hib_")
        ):
            observed.setdefault("blocked", node.lineno)
    return observed


def _check_ownership(
    func: ast.FunctionDef,
    expected: Set[str],
    artifact: str,
    program: str,
    diagnostics: List[Diagnostic],
) -> None:
    for kind, line in sorted(_observed_ownership(func).items()):
        if kind in expected:
            continue
        diagnostics.append(
            Diagnostic(
                "KERN004",
                Severity.ERROR,
                f"kernel performs a {kind} ownership test but no accessed "
                f"array is distributed {kind} in this node program",
                _span(artifact, program, line),
            )
        )


def expected_ownership(node: "NodeProgram") -> Set[str]:
    """Ownership-test kinds ``node``'s distributions can require.

    Mirrors ``_KernelEmitter._ref_kind`` / ``_block_read``: a per-element
    or per-block ownership test only ever arises from a ``Wrapped`` or
    ``Blocked`` distribution of an array the nest actually references
    (whole-array gathers test nothing per element).
    """
    from repro.codegen.locality import RefClass

    expected: Set[str] = set()
    distributions = node.program.distributions
    for info in node.plan.refs:
        if info.ref_class in (RefClass.LOCAL, RefClass.COVERED):
            continue
        distribution = distributions.get(info.ref.array)
        if distribution is None or not distribution.distribution_dims():
            continue
        kind = type(distribution).__name__
        if kind in ("Wrapped", "Blocked"):
            expected.add(kind.lower())
    for loop in node.nest.loops:
        for statement in loop.prologue:
            distribution = distributions.get(statement.array)
            if distribution is None or not distribution.distribution_dims():
                continue
            dims = distribution.distribution_dims()
            if all(statement.pattern[dim] is None for dim in dims):
                continue  # whole-array gather: no per-element test
            kind = type(distribution).__name__
            if kind in ("Wrapped", "Blocked"):
                expected.add(kind.lower())
    return expected


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------

class KernelPass:
    """Sanitize the generated accounting code (``KERN001``-``KERN005``)."""

    name = "kernels"

    def run(self, context: "AnalysisContext") -> List[Diagnostic]:
        node = context.node
        if node is None:
            return []
        from repro.numa import simulator

        diagnostics: List[Diagnostic] = []
        program_name = node.program.name
        status, kernel = simulator.node_artifact("kernel", node)
        if status == "ok":
            diagnostics.extend(
                sanitize_generated_source(
                    kernel.source,
                    artifact="kernel",
                    program=program_name,
                    expected=expected_ownership(node),
                )
            )
        else:
            diagnostics.append(
                Diagnostic(
                    "KERN005",
                    Severity.INFO,
                    f"compiled accounting kernel unavailable for this "
                    f"nest: {kernel}",
                    Span(program=program_name, reference="kernel"),
                )
            )
        status, form = simulator.node_artifact("form", node)
        if status == "ok":
            diagnostics.extend(
                sanitize_generated_source(
                    form.evaluator().source,
                    artifact="form",
                    program=program_name,
                    expected=None,
                )
            )
        return diagnostics
