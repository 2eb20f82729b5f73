"""An accounting reference that shares no code with the simulator's tiers.

Every accounting tier — the symbolic forms, the closed-form engine, the
compiled kernel and the interpreter walk itself — is checked against
:func:`reference_account`.  It visits every iteration of one processor's
share of a node program at test sizes and decides each event from the
intermediate representation alone:

* loop bounds with the ``ir`` layer's own ``Fraction`` semantics
  (:meth:`~repro.ir.loop.Loop.lower_value`, ``upper_value`` and
  ``first_iteration``), the distributed outermost level split by the node
  program's schedule;
* locality classes from the node program's locality plan;
* ownership from the distribution's owner map
  (:meth:`~repro.distributions.base.Distribution.owner`), element by
  element.

It deliberately imports nothing from ``repro.numa`` or
``repro.linalg.progression``, so a defect in the ownership counter the
walk and the closed-form engine share cannot hide in both sides of the
comparison.
"""

from itertools import product
from math import prod

from repro.codegen.locality import RefClass
from repro.ir.stmt import Assign, BlockRead, IfThen

#: The simulator's event counters, in declaration order.
FIELDS = (
    "local", "remote", "block_transfers", "block_bytes", "guards",
    "statements", "iterations", "syncs",
)


def _level_values(loop, env, schedule, processors, proc):
    """The values of ``loop`` one processor runs under ``schedule``."""
    values = list(
        range(loop.first_iteration(env), loop.upper_value(env) + 1, loop.step)
    )
    if schedule == "wrapped":
        if loop.step == 1:
            return [v for v in values if v % processors == proc]
        return values[proc::processors]
    if schedule == "blocked":
        size = -(-len(values) // processors)
        return values[proc * size:(proc + 1) * size]
    assert schedule == "all", schedule
    return values


def _integer_subscripts(ref):
    """``ref``'s subscripts as ``(const, ((name, coeff), ...))`` integer
    pairs, or None when one has a non-integral coefficient."""
    if not all(sub.is_integral() for sub in ref.subscripts):
        return None
    return tuple(
        (int(sub.const), tuple((name, int(c)) for name, c in sub.coeffs.items()))
        for sub in ref.subscripts
    )


class _Reference:
    def __init__(self, node, params, processors, proc):
        program = node.program
        self.node = node
        self.processors = processors
        self.proc = proc
        self.env = program.bound_params(params)
        self.env[node.procs_param] = processors
        self.env[node.proc_param] = proc
        self.shapes = {decl.name: decl.shape(self.env) for decl in program.arrays}
        self.element_bytes = {decl.name: decl.element_bytes for decl in program.arrays}
        self.distributions = program.distributions
        classes = {(info.ref, info.is_write): info.ref_class for info in node.plan.refs}
        # Per assignment: each reference, whether the locality plan proved
        # it local, and its subscripts as integer (const, terms) pairs when
        # they are integral (keyed by statement identity, so the hot loop
        # hashes no expressions and does no Fraction arithmetic).
        self.refs = {}
        for statement in self._assignments(node):
            self.refs[id(statement)] = [
                (
                    ref,
                    classes.get((ref, is_write)) in (RefClass.LOCAL, RefClass.COVERED),
                    _integer_subscripts(ref),
                )
                for ref, is_write in statement.array_refs()
            ]
        self.counts = dict.fromkeys(FIELDS, 0)

    @staticmethod
    def _assignments(node):
        pending = list(node.nest.body)
        for loop in node.nest.loops:
            pending.extend(loop.prologue)
        while pending:
            statement = pending.pop()
            if isinstance(statement, IfThen):
                pending.append(statement.body)
            elif isinstance(statement, Assign):
                yield statement

    def owned(self, array, indices):
        distribution = self.distributions.get(array)
        if distribution is None:
            return True
        owner = distribution.owner(indices, self.processors, self.shapes[array])
        return owner is None or owner == self.proc

    def walk(self, level):
        nest = self.node.nest
        if level == nest.depth:
            self.counts["iterations"] += 1
            for statement in nest.body:
                self.execute(statement)
            return
        loop = nest.loops[level]
        schedule = self.node.schedule if level == 0 else "all"
        for value in _level_values(loop, self.env, schedule, self.processors, self.proc):
            self.env[loop.index] = value
            if level == 0:
                self.counts["syncs"] += self.node.sync_per_outer_iteration
            for statement in loop.prologue:
                self.execute(statement)
            self.walk(level + 1)
        self.env.pop(loop.index, None)

    def execute(self, statement):
        counts = self.counts
        if isinstance(statement, Assign):
            counts["statements"] += 1
            env = self.env
            for ref, local_class, subscripts in self.refs[id(statement)]:
                if local_class:
                    counts["local"] += 1
                    continue
                if subscripts is None:
                    indices = ref.index_tuple(env)
                else:
                    indices = tuple(
                        const + sum(c * env[name] for name, c in terms)
                        for const, terms in subscripts
                    )
                if self.owned(ref.array, indices):
                    counts["local"] += 1
                else:
                    counts["remote"] += 1
        elif isinstance(statement, IfThen):
            counts["guards"] += len(statement.conditions)
            if statement.evaluate_guard(self.env):
                self.execute(statement.body)
        elif isinstance(statement, BlockRead):
            self.read(statement)
        else:
            raise TypeError(f"no reference semantics for {statement!r}")

    def read(self, statement):
        array = statement.array
        distribution = self.distributions.get(array)
        if distribution is None or not distribution.distribution_dims():
            return
        shape = self.shapes[array]
        nbytes = self.element_bytes[array]
        pattern = statement.fixed_values(self.env)
        if all(pattern[d] is None for d in distribution.distribution_dims()):
            # A whole-array gather: one message per remote owner.
            remote = sum(
                1
                for indices in product(*(range(extent) for extent in shape))
                if not self.owned(array, indices)
            )
            if remote > 0:
                self.counts["block_transfers"] += min(self.processors - 1, remote)
                self.counts["block_bytes"] += remote * nbytes
            return
        probe = tuple(0 if entry is None else entry for entry in pattern)
        if not self.owned(array, probe):
            elements = prod(e for e, entry in zip(shape, pattern) if entry is None)
            self.counts["block_transfers"] += 1
            self.counts["block_bytes"] += elements * nbytes


def reference_account(node, params, processors, proc):
    """One processor's event counts as a ``{field: count}`` dict."""
    reference = _Reference(node, params, processors, proc)
    reference.walk(0)
    return reference.counts
