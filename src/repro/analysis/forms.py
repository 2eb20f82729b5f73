"""Symbolic-form verifier and certificate layer (codes ``FORM001``-``FORM007``).

Tier 0 of the accounting engine (:mod:`repro.numa.symbolic`) derives each
:class:`~repro.numa.simulator.AccessCounts` field as one quasi-polynomial
form over ``(params, P, proc)`` — after which every sweep cell is a pure
form evaluation.  Nothing *static* re-proved those forms against the node
program until this pass; the only check was the dynamic fuzz oracle.

The pass does two things:

1. **Well-formedness lint** over every derived form:

   * ``FORM001`` — a ``Mod``/``FloorDiv`` atom that the exact-identity
     constructor rewrites would simplify (or that the constructors reject
     outright): derived forms are always built through the constructors,
     so an unsimplified atom means a derivation or mutation bug;
   * ``FORM003`` — residual ``BoundedSum`` loops whose estimated
     evaluation cost exceeds the simulator's auto-selection ceiling, so
     ``auto`` will demote the form (the banded-nest inefficiency the
     ROADMAP names);
   * ``FORM004`` — a free symbol outside the program parameters and the
     ``(P, proc)`` processor symbols: such a form cannot be evaluated.

2. **Certification** that the form is *identical* to the independently
   derived closed-form engine (tier 1) on a finite grid whose size is
   computed from the form's own quasi-polynomial structure — a sound
   interpolation argument, not sampling:

   * with the processor count ``P`` fixed, every modulus in the form is a
     concrete integer; the form restricted to one parameter axis is
     quasi-polynomial with congruence period ``L`` (the lcm of the
     moduli of atoms that move with the parameter) and degree at most
     ``d`` (computed structurally, ``Mod``/``Ge0`` contributing degree
     0, ``FloorDiv``/``Pos`` the degree of their argument, and a
     ``BoundedSum`` ``deg(body) + deg(bound) * (1 + inner-degree)``);
   * two quasi-polynomials of period ``L`` and degree ``<= d`` that
     agree on ``d + 1`` points in every residue class are identical, so
     the grid takes ``L * (d + 1)`` consecutive integer values per
     parameter (a tensor-product grid over several parameters) anchored
     at the program's default bindings;
   * the ``P`` axis carries the moduli themselves, so it is swept
     exhaustively over ``1 .. max_processors`` with every processor id
     checked at each count.

   Agreement on the whole grid certifies form ≡ closed-form engine on
   the enclosing chamber (the region where no ``Pos``/``Ge0`` argument
   changes sign — see ``docs/analysis.md`` for the exact statement);
   disagreement is ``FORM005``, a non-integral form value is ``FORM002``,
   and a grid past the verification budget (or structure the argument
   cannot cover, e.g. a modulus that moves with a parameter) is
   ``FORM007``.  The resulting :class:`FormCertificate` is memoized in
   the process-wide :class:`~repro.runtime.cache.SimulationCache`
   alongside the form itself, keyed by the node fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity, Span
from repro.linalg.sympoly import (
    BoundedSum,
    FloorDiv,
    Ge0,
    Mod,
    Pos,
    SymExpr,
    SymbolicUnsupported,
    floordiv as make_floordiv,
    mod as make_mod,
)

if TYPE_CHECKING:
    from repro.analysis.manager import AnalysisContext
    from repro.codegen.spmd import NodeProgram
    from repro.numa.symbolic import SymbolicEngine

__all__ = [
    "FormCertificate",
    "FormsPass",
    "certify_engine",
    "certify_node",
]

#: Processor counts the certificate sweeps exhaustively (the ``P`` axis
#: carries the congruence moduli, so it cannot be interpolated).
CERT_MAX_PROCS = 4

#: Hard cap on checked grid cells; a grid past this comes back
#: ``verified=False`` with ``failure="budget"`` instead of running for
#: minutes (``FORM007``, a warning — never a silent pass).
CERT_POINT_BUDGET = 20_000


# ----------------------------------------------------------------------
# quasi-polynomial structure: degree and congruence period per variable
# ----------------------------------------------------------------------

def _degree(expr: SymExpr, var: str) -> int:
    """Structural upper bound on the degree of ``expr`` in ``var``."""
    best = 0
    for mono, _coeff in expr._terms:
        total = 0
        for base, exp in mono:
            total += exp * _base_degree(base, var)
        best = max(best, total)
    return best


def _base_degree(base: object, var: str) -> int:
    if isinstance(base, str):
        return 1 if base == var else 0
    if isinstance(base, (Mod, Ge0)):
        return 0
    if isinstance(base, FloorDiv):
        return _degree(base.arg, var)
    if isinstance(base, Pos):
        return _degree(base.arg, var)
    if isinstance(base, BoundedSum):
        inner = _degree(base.body, base.var)
        return _degree(base.body, var) + _degree(base.bound, var) * (inner + 1)
    raise SymbolicUnsupported(f"unknown atom kind {base!r}")


def _modulus_int(modulus: object, procs_name: str, processors: int) -> Optional[int]:
    """The concrete modulus value with ``P`` fixed, or ``None``."""
    if isinstance(modulus, int):
        return modulus
    if isinstance(modulus, SymExpr):
        if modulus.free_symbols() <= frozenset((procs_name,)):
            try:
                return modulus.evaluate({procs_name: processors})
            except SymbolicUnsupported:
                return None
    return None


def _collect_periods(
    expr: SymExpr,
    var: str,
    procs_name: str,
    processors: int,
    moving: FrozenSet[str],
    out: List[Optional[int]],
) -> None:
    """Concrete moduli of atoms that move with ``var`` (``None`` = opaque).

    ``moving`` carries bound variables of enclosing sums whose *bound*
    moves with ``var``: their iteration space shifts as ``var`` changes,
    so their atoms' periods fold into the period in ``var`` too.
    """
    names = frozenset((var,)) | moving
    for atom in expr.atoms():
        if isinstance(atom, BoundedSum):
            inner = moving
            if any(atom.bound.depends_on(name) for name in names):
                inner = moving | frozenset((atom.var,))
            _collect_periods(atom.bound, var, procs_name, processors, moving, out)
            _collect_periods(atom.body, var, procs_name, processors, inner, out)
        elif isinstance(atom, (Mod, FloorDiv)):
            _collect_periods(atom.arg, var, procs_name, processors, moving, out)
            modulus = atom.modulus
            if isinstance(modulus, SymExpr):
                _collect_periods(
                    modulus, var, procs_name, processors, moving, out
                )
            if any(atom.depends_on(name) for name in names):
                value = _modulus_int(modulus, procs_name, processors)
                if isinstance(modulus, SymExpr) and any(
                    modulus.depends_on(name) for name in names
                ):
                    value = None  # the modulus itself moves: not periodic
                out.append(value)
        elif isinstance(atom, (Pos, Ge0)):
            _collect_periods(atom.arg, var, procs_name, processors, moving, out)


def _period(
    expr: SymExpr, var: str, procs_name: str, processors: int
) -> Optional[int]:
    """Congruence period of ``expr`` along ``var`` at a fixed ``P``.

    ``None`` when some modulus cannot be settled (it depends on the
    parameter itself, or on a symbol outside ``P``) — the interpolation
    argument then does not apply along this axis.
    """
    collected: List[Optional[int]] = []
    _collect_periods(
        expr, var, procs_name, processors, frozenset(), collected
    )
    period = 1
    for value in collected:
        if value is None or value <= 0:
            return None
        period = period * value // gcd(period, value)
    return period


# ----------------------------------------------------------------------
# the certificate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FormCertificate:
    """Machine-checkable record that form ≡ closed-form engine.

    ``verified`` is the verdict; on failure ``failure`` classifies it
    (``"mismatch"``, ``"non-integral"``, ``"budget"``, ``"structure"``)
    and ``reason`` pins the witness point.  ``degree``/``period`` record
    the per-parameter interpolation structure the grid was computed
    from, ``points`` the number of checked grid cells, and ``digest`` a
    SHA-256 over the forms and the grid specification so a cached
    certificate can be matched against the artifacts it certifies.
    """

    program: str
    verified: bool
    failure: str
    reason: str
    params: Tuple[str, ...]
    anchor: Tuple[Tuple[str, int], ...]
    degree: Tuple[Tuple[str, int], ...]
    period: Tuple[Tuple[str, int], ...]
    max_processors: int
    points: int
    digest: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable representation."""
        return {
            "program": self.program,
            "verified": self.verified,
            "failure": self.failure,
            "reason": self.reason,
            "params": list(self.params),
            "anchor": {name: value for name, value in self.anchor},
            "degree": {name: value for name, value in self.degree},
            "period": {name: value for name, value in self.period},
            "max_processors": self.max_processors,
            "points": self.points,
            "digest": self.digest,
        }


def _failed(
    program: str,
    failure: str,
    reason: str,
    params: Tuple[str, ...],
    anchor: Tuple[Tuple[str, int], ...],
    degree: Tuple[Tuple[str, int], ...],
    max_processors: int,
    points: int,
    digest: str,
) -> FormCertificate:
    return FormCertificate(
        program=program,
        verified=False,
        failure=failure,
        reason=reason,
        params=params,
        anchor=anchor,
        degree=degree,
        period=(),
        max_processors=max_processors,
        points=points,
        digest=digest,
    )


def certify_engine(
    engine: "SymbolicEngine",
    *,
    max_processors: int = CERT_MAX_PROCS,
    point_budget: int = CERT_POINT_BUDGET,
) -> FormCertificate:
    """Certify ``engine``'s forms against its own closed-form reference.

    The reference (``engine.base``) is the tier-1
    :class:`~repro.numa.counting.ClosedFormEngine` — an independent
    derivation that never touches :mod:`~repro.linalg.sympoly` — so
    agreement really is a cross-check, not a tautology.
    """
    node = engine.node
    program_name = node.program.name
    anchor_env = node.program.bound_params(None)
    params = tuple(sorted(node.program.params))
    anchor = tuple((name, int(anchor_env[name])) for name in params)

    degrees: Dict[str, int] = {}
    try:
        for name in params:
            degrees[name] = max(
                (_degree(form, name) for form in engine.forms.values()),
                default=0,
            )
    except SymbolicUnsupported as error:
        return _failed(
            program_name, "structure", str(error), params, anchor, (),
            max_processors, 0, "",
        )
    degree = tuple(sorted(degrees.items()))

    digest = hashlib.sha256()
    for field in sorted(engine.forms):
        digest.update(field.encode("ascii"))
        digest.update(repr(engine.forms[field]).encode("utf-8"))
    digest.update(repr(anchor).encode("ascii"))
    digest.update(f"procs<={max_processors}".encode("ascii"))

    # One grid per anchor processor count: the periods depend on P.
    grids: List[Tuple[int, Dict[str, int]]] = []
    total_cells = 0
    worst_period: Dict[str, int] = {name: 1 for name in params}
    for processors in range(1, max_processors + 1):
        periods: Dict[str, int] = {}
        for name in params:
            candidates: List[int] = []
            for form in engine.forms.values():
                value = _period(form, name, engine.procs_name, processors)
                if value is None:
                    return _failed(
                        program_name, "structure",
                        f"no finite congruence period in {name!r} at "
                        f"P={processors} (a modulus moves with the "
                        "parameter)",
                        params, anchor, degree, max_processors, 0,
                        digest.hexdigest(),
                    )
                candidates.append(value)
            period = 1
            for value in candidates:
                period = period * value // gcd(period, value)
            periods[name] = period
            worst_period[name] = max(worst_period[name], period)
        cells = processors
        for name in params:
            cells *= periods[name] * (degrees[name] + 1)
        total_cells += cells
        grids.append((processors, periods))
    if total_cells > point_budget:
        return _failed(
            program_name, "budget",
            f"certificate grid needs {total_cells} cells "
            f"(budget {point_budget})",
            params, anchor, degree, max_processors, 0, digest.hexdigest(),
        )

    period = tuple(sorted(worst_period.items()))
    points = 0
    for processors, periods in grids:
        axes: List[Tuple[str, range]] = []
        for name in params:
            base = int(anchor_env[name])
            width = periods[name] * (degrees[name] + 1)
            axes.append((name, range(base, base + width)))
        for env in _product_envs(anchor_env, axes):
            for proc in range(processors):
                points += 1
                try:
                    symbolic = engine.account(env, processors, proc)
                except SymbolicUnsupported as error:
                    return FormCertificate(
                        program=program_name, verified=False,
                        failure="non-integral",
                        reason=f"form evaluation failed at "
                        f"{_point_text(env, params, processors, proc)}: "
                        f"{error}",
                        params=params, anchor=anchor, degree=degree,
                        period=period, max_processors=max_processors,
                        points=points, digest=digest.hexdigest(),
                    )
                reference = engine.base.account(env, processors, proc)
                if symbolic != reference:
                    return FormCertificate(
                        program=program_name, verified=False,
                        failure="mismatch",
                        reason=f"form disagrees with the closed-form "
                        f"engine at "
                        f"{_point_text(env, params, processors, proc)}: "
                        f"{symbolic} vs {reference}",
                        params=params, anchor=anchor, degree=degree,
                        period=period, max_processors=max_processors,
                        points=points, digest=digest.hexdigest(),
                    )
    return FormCertificate(
        program=program_name, verified=True, failure="", reason="",
        params=params, anchor=anchor, degree=degree, period=period,
        max_processors=max_processors, points=points,
        digest=digest.hexdigest(),
    )


def _point_text(
    env: Dict[str, int], params: Tuple[str, ...], processors: int, proc: int
) -> str:
    bindings = ", ".join(f"{name}={env[name]}" for name in params)
    prefix = f"({bindings}, " if bindings else "("
    return f"{prefix}P={processors}, proc={proc})"


def _product_envs(
    anchor_env: Dict[str, int], axes: List[Tuple[str, range]]
) -> List[Dict[str, int]]:
    """Tensor-product parameter grid, anchored at the default bindings."""
    envs: List[Dict[str, int]] = [dict(anchor_env)]
    for name, values in axes:
        expanded: List[Dict[str, int]] = []
        for env in envs:
            for value in values:
                child = dict(env)
                child[name] = value
                expanded.append(child)
        envs = expanded
    return envs


def certify_node(node: "NodeProgram") -> Optional[FormCertificate]:
    """The (memoized) certificate for ``node``'s symbolic forms.

    ``None`` when the nest has no symbolic tier at all — that is an
    engine-coverage fact, not a verification failure.  Both the forms
    and the certificate live in the process-wide simulation cache keyed
    by the node fingerprint, so a sweep (or a fuzz campaign revisiting a
    shrunken program) certifies each distinct node program once.
    """
    from repro.numa import simulator
    from repro.numa.symbolic import FORM_SCHEMA
    from repro.runtime.cache import node_fingerprint, shared_cache

    fingerprint = node_fingerprint(node)
    status, engine = simulator.node_artifact("form", node, fingerprint=fingerprint)
    if status != "ok":
        return None
    # FORM_SCHEMA in the key: a certificate proves one derivation
    # schema's forms; it must not vouch for a newer one from a shared
    # store.
    key = fingerprint + f"|symcert:{FORM_SCHEMA}"
    cert = shared_cache().artifact("cert", key, lambda: certify_engine(engine))
    assert isinstance(cert, FormCertificate)
    return cert


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------

class FormsPass:
    """Verify and certify the tier-0 symbolic forms (``FORM001``-``FORM007``)."""

    name = "forms"

    def run(self, context: "AnalysisContext") -> List[Diagnostic]:
        node = context.node
        if node is None:
            return []
        from repro.numa import simulator

        diagnostics: List[Diagnostic] = []
        program_name = node.program.name
        status, engine = simulator.node_artifact("form", node)
        if status != "ok":
            diagnostics.append(
                Diagnostic(
                    "FORM006",
                    Severity.INFO,
                    f"symbolic tier unavailable for this nest: {engine}",
                    Span(program=program_name),
                )
            )
            return diagnostics
        self._check_symbols(engine, program_name, diagnostics)
        self._check_atoms(engine, program_name, diagnostics)
        self._check_cost(node, program_name, diagnostics)
        self._check_certificate(node, program_name, diagnostics)
        return diagnostics

    # ------------------------------------------------------------------
    def _check_symbols(
        self,
        engine: "SymbolicEngine",
        program_name: str,
        diagnostics: List[Diagnostic],
    ) -> None:
        allowed = frozenset(engine.node.program.params) | frozenset(
            (engine.procs_name, engine.proc_name)
        )
        for field in sorted(engine.forms):
            extra = engine.forms[field].free_symbols() - allowed
            if extra:
                diagnostics.append(
                    Diagnostic(
                        "FORM004",
                        Severity.ERROR,
                        f"form for {field!r} mentions "
                        f"{', '.join(sorted(extra))} outside the program "
                        "parameters and (P, proc)",
                        Span(program=program_name, reference=f"form:{field}"),
                    )
                )

    # ------------------------------------------------------------------
    def _check_atoms(
        self,
        engine: "SymbolicEngine",
        program_name: str,
        diagnostics: List[Diagnostic],
    ) -> None:
        from repro.linalg.sympoly import _deep_atoms

        seen: Set[object] = set()
        for field in sorted(engine.forms):
            for atom in _deep_atoms(engine.forms[field], []):
                if not isinstance(atom, (Mod, FloorDiv)) or atom in seen:
                    continue
                seen.add(atom)
                constructor = make_mod if isinstance(atom, Mod) else make_floordiv
                try:
                    rebuilt = constructor(atom.arg, atom.modulus)
                except SymbolicUnsupported as error:
                    diagnostics.append(
                        Diagnostic(
                            "FORM001",
                            Severity.ERROR,
                            f"ill-formed atom {atom!r} in the {field!r} "
                            f"form: {error}",
                            Span(
                                program=program_name,
                                reference=f"form:{field}",
                            ),
                        )
                    )
                    continue
                if rebuilt != SymExpr._atom(atom):
                    diagnostics.append(
                        Diagnostic(
                            "FORM001",
                            Severity.ERROR,
                            f"unsimplified atom {atom!r} in the {field!r} "
                            f"form: the exact-identity rewrites reduce it "
                            f"to {rebuilt!r}",
                            Span(
                                program=program_name,
                                reference=f"form:{field}",
                            ),
                        )
                    )

    # ------------------------------------------------------------------
    def _check_cost(
        self,
        node: "NodeProgram",
        program_name: str,
        diagnostics: List[Diagnostic],
    ) -> None:
        """FORM003 exactly when ``auto`` would demote the form here."""
        from repro.numa.simulator import choose_tier

        choice = choose_tier(
            node, processors=CERT_MAX_PROCS, params=None, engine="auto",
            mode="account", block_cache=False,
        )
        for skip in choice.skips:
            if skip.tier == "symbolic" and skip.reason == "cost-ceiling":
                diagnostics.append(
                    Diagnostic(
                        "FORM003",
                        Severity.WARNING,
                        f"residual BoundedSum loops put form evaluation at "
                        f"~{skip.detail} flat ops under the default "
                        "parameters, over the auto cost ceiling; the auto "
                        f"engine will demote this nest to the {choice.tier} "
                        "tier",
                        Span(program=program_name, reference="forms"),
                    )
                )

    # ------------------------------------------------------------------
    def _check_certificate(
        self,
        node: "NodeProgram",
        program_name: str,
        diagnostics: List[Diagnostic],
    ) -> None:
        cert = certify_node(node)
        if cert is None or cert.verified:
            return
        span = Span(program=program_name, reference="certificate")
        if cert.failure == "mismatch":
            diagnostics.append(
                Diagnostic("FORM005", Severity.ERROR, cert.reason, span)
            )
        elif cert.failure == "non-integral":
            diagnostics.append(
                Diagnostic("FORM002", Severity.ERROR, cert.reason, span)
            )
        else:  # budget / structure: unverified, honestly reported
            diagnostics.append(
                Diagnostic(
                    "FORM007",
                    Severity.WARNING,
                    f"form certificate not verified ({cert.failure}): "
                    f"{cert.reason}",
                    span,
                )
            )
