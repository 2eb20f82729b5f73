"""Exact symbolic quasi-polynomials over (params, P, p).

The closed-form engine (:mod:`repro.numa.counting`) answers each
``(N, P, proc)`` accounting cell with exact integer arithmetic — but it
re-derives the answer for every concrete cell.  This module is the
substrate of tier 0, the *symbolic* engine: expressions over the program
parameters, the processor count and the processor id that are derived
once per program and then merely *evaluated* per cell.

A :class:`SymExpr` is a normalized multivariate polynomial with exact
rational coefficients — a plain ``int`` whenever the coefficient is
integral, a :class:`~fractions.Fraction` only otherwise (Faulhaber power
sums introduce the only non-integral ones) — whose variables are either
plain symbols (``"N"``, ``"P"``, ``"p"``) or *atoms* — the non-polynomial
building blocks of integer counting:

* :class:`Mod` — ``arg mod modulus`` (``modulus`` a positive integer or a
  symbolic expression, in practice the processor count ``P``);
* :class:`FloorDiv` — ``floor(arg / modulus)``;
* :class:`Pos` — ``max(0, arg)``, from which ``min``/``max`` and the
  comparison indicators are built (so no symbolic comparisons are ever
  needed: every piecewise case is an algebraic identity);
* :class:`BoundedSum` — ``sum(body for var in [0, bound))`` evaluated at
  evaluation time, the residue-class construct (``bound`` is ``P`` or a
  small concrete modulus, never a problem size).

Everything is exact: the constructors apply only rewrites that hold for
*all* integer assignments (``floor((m*A + r)/m) = A + floor(r/m)``,
``(m*A + r) mod m = r mod m``, …), so a derived form is bit-identical to
the enumeration it replaced on every point of its domain.

:func:`sym_sum` is the workhorse: the exact symbolic sum of an expression
over ``var in [0, trips)`` with ``trips`` itself symbolic.  Polynomial
parts collapse via Faulhaber power sums; ``Mod``/``FloorDiv`` atoms are
removed by residue-splitting the range (``var = r + M*t``); ``Pos`` atoms
by splitting the range at their (symbolically clamped) sign change; inner
``BoundedSum`` atoms by exchanging the order of summation.  Expressions
outside the summable fragment raise :class:`SymbolicUnsupported`, which
the simulator treats as "fall down the engine ladder", never as an error.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = [
    "SymExpr",
    "SymbolicUnsupported",
    "sym",
    "const",
    "mod",
    "floordiv",
    "pos",
    "smin",
    "smax",
    "ge0",
    "eq0",
    "bounded_sum",
    "compile_account",
    "eval_cost",
    "fresh_name",
    "planned_cost",
    "sym_sum",
]


class SymbolicUnsupported(Exception):
    """The expression falls outside the symbolically summable fragment."""


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

class _Atom:
    """Base class of non-polynomial bases.  Immutable and hashable.

    Atoms entering a form are interned (:func:`_intern`): structurally
    equal atoms built through the constructors are one object, which
    carries its sort index in ``_order``.
    """

    __slots__ = ("_hash", "_order")

    def _key(self) -> Tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            value = hash((type(self).__name__,) + self._key())
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        # Rebuild through the intern table: the cached hash and sort
        # index are process-local and must not travel in a pickle.
        fields = tuple(
            getattr(self, name)
            for name in type(self).__slots__
            if not name.startswith("_")
        )
        return (_interned, (type(self),) + fields)

    def evaluate(self, env: Mapping[str, int], memo: Dict) -> "_Coeff":
        raise NotImplementedError

    def depends_on(self, name: str) -> bool:
        raise NotImplementedError

    def free_symbols(self) -> frozenset:
        raise NotImplementedError

    def binders(self) -> frozenset:
        """Bound-variable names of the sums inside this atom."""
        return self.arg.binders()


def _modulus_key(modulus) -> Tuple:
    if isinstance(modulus, int):
        return ("int", modulus)
    return ("expr", modulus._terms)


def _modulus_value(modulus, env, memo):
    if isinstance(modulus, int):
        return modulus
    return modulus._evaluate(env, memo)


def _modulus_depends(modulus, name: str) -> bool:
    return not isinstance(modulus, int) and modulus.depends_on(name)


def _modulus_symbols(modulus) -> frozenset:
    if isinstance(modulus, int):
        return frozenset()
    return modulus.free_symbols()


def _modulus_binders(modulus) -> frozenset:
    if isinstance(modulus, int):
        return frozenset()
    return modulus.binders()


class Mod(_Atom):
    """``arg mod modulus`` with ``modulus`` a positive int or SymExpr."""

    __slots__ = ("arg", "modulus")

    # Annotation-only declarations (slots hold the storage): they let
    # strictly-typed consumers (repro.analysis.forms) see the fields.
    arg: "SymExpr"
    modulus: Union[int, "SymExpr"]

    def __init__(self, arg: "SymExpr", modulus) -> None:
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "modulus", modulus)

    def _key(self) -> Tuple:
        return (self.arg._terms, _modulus_key(self.modulus))

    def evaluate(self, env, memo):
        m = _modulus_value(self.modulus, env, memo)
        if m <= 0:
            raise SymbolicUnsupported(f"non-positive modulus {m} in {self!r}")
        return self.arg._evaluate(env, memo) % m

    def depends_on(self, name: str) -> bool:
        return self.arg.depends_on(name) or _modulus_depends(self.modulus, name)

    def free_symbols(self) -> frozenset:
        return self.arg.free_symbols() | _modulus_symbols(self.modulus)

    def binders(self) -> frozenset:
        return self.arg.binders() | _modulus_binders(self.modulus)

    def __repr__(self) -> str:
        return f"Mod({self.arg!r}, {self.modulus!r})"


class FloorDiv(_Atom):
    """``floor(arg / modulus)`` with ``modulus`` a positive int or SymExpr."""

    __slots__ = ("arg", "modulus")

    arg: "SymExpr"
    modulus: Union[int, "SymExpr"]

    def __init__(self, arg: "SymExpr", modulus) -> None:
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "modulus", modulus)

    def _key(self) -> Tuple:
        return (self.arg._terms, _modulus_key(self.modulus))

    def evaluate(self, env, memo):
        m = _modulus_value(self.modulus, env, memo)
        if m <= 0:
            raise SymbolicUnsupported(f"non-positive modulus {m} in {self!r}")
        value = self.arg._evaluate(env, memo)
        if isinstance(value, int) and isinstance(m, int):
            return value // m
        return (value.numerator * m.denominator) // (
            value.denominator * m.numerator
        )

    def depends_on(self, name: str) -> bool:
        return self.arg.depends_on(name) or _modulus_depends(self.modulus, name)

    def free_symbols(self) -> frozenset:
        return self.arg.free_symbols() | _modulus_symbols(self.modulus)

    def binders(self) -> frozenset:
        return self.arg.binders() | _modulus_binders(self.modulus)

    def __repr__(self) -> str:
        return f"FloorDiv({self.arg!r}, {self.modulus!r})"


class Pos(_Atom):
    """``max(0, arg)``."""

    __slots__ = ("arg",)

    arg: "SymExpr"

    def __init__(self, arg: "SymExpr") -> None:
        object.__setattr__(self, "arg", arg)

    def _key(self) -> Tuple:
        return (self.arg._terms,)

    def evaluate(self, env, memo):
        value = self.arg._evaluate(env, memo)
        return value if value > 0 else 0

    def depends_on(self, name: str) -> bool:
        return self.arg.depends_on(name)

    def free_symbols(self) -> frozenset:
        return self.arg.free_symbols()

    def __repr__(self) -> str:
        return f"Pos({self.arg!r})"


class Ge0(_Atom):
    """Indicator ``1 if arg >= 0 else 0`` (``arg`` integer-valued)."""

    __slots__ = ("arg",)

    arg: "SymExpr"

    def __init__(self, arg: "SymExpr") -> None:
        object.__setattr__(self, "arg", arg)

    def _key(self) -> Tuple:
        return (self.arg._terms,)

    def evaluate(self, env, memo):
        value = self.arg._evaluate(env, memo)
        return 1 if value >= 0 else 0

    def depends_on(self, name: str) -> bool:
        return self.arg.depends_on(name)

    def free_symbols(self) -> frozenset:
        return self.arg.free_symbols()

    def __repr__(self) -> str:
        return f"Ge0({self.arg!r})"


class BoundedSum(_Atom):
    """``sum(body for var in [0, max(0, bound)))`` — evaluated at eval time.

    ``bound`` is the processor count or a small concrete modulus, so
    evaluation stays O(P) — never a problem-size loop.
    """

    __slots__ = ("var", "bound", "body", "_freeatoms")

    var: str
    bound: "SymExpr"
    body: "SymExpr"

    def __init__(self, var: str, bound: "SymExpr", body: "SymExpr") -> None:
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_freeatoms", None)

    def _key(self) -> Tuple:
        return (self.var, self.bound._terms, self.body._terms)

    def _free_atoms(self) -> Tuple["_Atom", ...]:
        """Atoms inside the body not depending on the bound variable —
        evaluated once per enclosing evaluation, shared by every
        iteration of the sum."""
        atoms = self._freeatoms
        if atoms is None:
            collected: List[_Atom] = []

            def _scan(expr: "SymExpr", bound_vars: frozenset) -> None:
                for atom in expr.atoms():
                    if not any(atom.depends_on(v) for v in bound_vars):
                        collected.append(atom)
                    elif isinstance(atom, BoundedSum):
                        _scan(atom.bound, bound_vars)
                        _scan(atom.body, bound_vars | {atom.var})
                    else:
                        _scan(atom.arg, bound_vars)

            _scan(self.body, frozenset((self.var,)))
            atoms = tuple(collected)
            object.__setattr__(self, "_freeatoms", atoms)
        return atoms

    def evaluate(self, env, memo):
        bound = self.bound._evaluate(env, memo)
        if bound.denominator != 1:
            raise SymbolicUnsupported(f"non-integral sum bound {bound}")
        shared: Dict = {}
        for atom in self._free_atoms():
            key = id(atom)
            if key not in shared:
                shared[key] = atom.evaluate(env, shared)
        total = 0
        inner_env = dict(env)
        for value in range(max(0, int(bound))):
            inner_env[self.var] = value
            # The bound variable changes per iteration: fresh memo,
            # seeded with the iteration-invariant atom values.
            total += self.body._evaluate(inner_env, dict(shared))
        return total

    def depends_on(self, name: str) -> bool:
        if name == self.var:
            return False
        return self.bound.depends_on(name) or self.body.depends_on(name)

    def free_symbols(self) -> frozenset:
        return self.bound.free_symbols() | (
            self.body.free_symbols() - frozenset([self.var])
        )

    def binders(self) -> frozenset:
        return self.bound.binders() | self.body.binders() | {self.var}

    def __repr__(self) -> str:
        return f"BoundedSum({self.var!r}, {self.bound!r}, {self.body!r})"


_Base = Union[str, _Atom]


#: Hash-consing table: every structurally distinct atom that enters a
#: form maps to its one canonical object.  Equal atoms are then one
#: object, so comparing them is an identity test instead of a recursive
#: walk of equal trees.  The canonical atom's ``_order`` is its index in
#: this table, fixed when it is registered (at construction through
#: :meth:`SymExpr._atom`, which sorts it at once, or at first sort for an
#: atom built directly), and gives monomial sorting an O(1) key.  (Keying
#: the sort on ``repr`` instead is quadratic-to-exponential on deeply
#: nested atoms: each comparison re-renders whole subtrees.)  First-come
#: order is arbitrary but stable within a process, which is all
#: canonicalization needs.  Entries are never evicted.  One lock guards
#: registration and index assignment together: the service derives on
#: several threads, and two threads registering the same structure must
#: get one object with one index.
_INTERN: Dict[_Atom, _Atom] = {}
_INTERN_LOCK = threading.Lock()
_INTERN_HITS = 0


def _intern(atom: _Atom) -> _Atom:
    """The canonical atom structurally equal to ``atom``."""
    global _INTERN_HITS
    if hasattr(atom, "_order"):  # only canonical atoms carry an index
        return atom
    with _INTERN_LOCK:
        canonical = _INTERN.setdefault(atom, atom)
        if canonical is atom:
            object.__setattr__(atom, "_order", len(_INTERN) - 1)
        else:
            _INTERN_HITS += 1
    return canonical


def _interned(cls, *fields) -> _Atom:
    """Unpickling hook: rebuild an atom and intern it."""
    return _intern(cls(*fields))


def intern_counters() -> Dict[str, int]:
    """Size of the atom table and how many built atoms it deduplicated.

    Both count over the process lifetime (pool workers keep their own).
    """
    return {
        "sympoly.atoms_interned": len(_INTERN),
        "sympoly.intern_hits": _INTERN_HITS,
    }


def _atom_order(atom: _Atom) -> int:
    try:
        return atom._order
    except AttributeError:
        return _intern(atom)._order


def _base_sort_key(base: _Base) -> Tuple:
    if isinstance(base, str):
        return (0, base, 0)
    return (1, type(base).__name__, _atom_order(base))


# ---------------------------------------------------------------------------
# the polynomial
# ---------------------------------------------------------------------------

_Monomial = Tuple[Tuple[_Base, int], ...]


_Coeff = Union[int, Fraction]


def _term_sort_key(item) -> Tuple:
    return tuple((_base_sort_key(base), exp) for base, exp in item[0])


def _mono_sort_key(item) -> Tuple:
    return _base_sort_key(item[0])


class SymExpr:
    """A normalized polynomial over symbols and atoms.

    Coefficients are ``int`` when integral and :class:`Fraction` only
    when not, so the derivation's hot arithmetic stays on machine ints.
    """

    __slots__ = ("_terms", "_hashv", "_symbols", "_binders", "_plan")

    _terms: Tuple[Tuple[_Monomial, _Coeff], ...]

    def __init__(self, terms: Dict[_Monomial, _Coeff]) -> None:
        clean = []
        for mono, coeff in terms.items():
            if not coeff:
                continue
            if type(coeff) is not int and coeff.denominator == 1:
                coeff = coeff.numerator
            clean.append((mono, coeff))
        if len(clean) > 1:
            clean.sort(key=_term_sort_key)
        object.__setattr__(self, "_terms", tuple(clean))
        object.__setattr__(self, "_hashv", None)
        object.__setattr__(self, "_symbols", None)
        object.__setattr__(self, "_binders", None)
        object.__setattr__(self, "_plan", None)

    # -- construction helpers ------------------------------------------
    @staticmethod
    def _const(value: _Coeff) -> "SymExpr":
        return SymExpr({(): value})

    @staticmethod
    def _symbol(name: str) -> "SymExpr":
        return SymExpr({((name, 1),): 1})

    @staticmethod
    def _atom(atom: _Atom) -> "SymExpr":
        return SymExpr({((_intern(atom), 1),): 1})

    @staticmethod
    def _coerce(value) -> "SymExpr":
        if isinstance(value, SymExpr):
            return value
        if isinstance(value, (int, Fraction)):
            return SymExpr._const(value)
        raise TypeError(f"cannot coerce {value!r} to SymExpr")

    # -- structural queries --------------------------------------------
    def is_const(self) -> bool:
        return all(mono == () for mono, _ in self._terms)

    def const_value(self) -> _Coeff:
        for mono, coeff in self._terms:
            if mono == ():
                return coeff
        return 0

    def depends_on(self, name: str) -> bool:
        return name in self.free_symbols()

    def free_symbols(self) -> frozenset:
        cached = self._symbols
        if cached is None:
            names = set()
            for mono, _coeff in self._terms:
                for base, _exp in mono:
                    if isinstance(base, str):
                        names.add(base)
                    else:
                        names |= base.free_symbols()
            cached = frozenset(names)
            object.__setattr__(self, "_symbols", cached)
        return cached

    def binders(self) -> frozenset:
        """Every bound-variable name of a sum anywhere inside."""
        cached = self._binders
        if cached is None:
            names = set()
            for atom in self.atoms():
                names |= atom.binders()
            cached = frozenset(names)
            object.__setattr__(self, "_binders", cached)
        return cached

    def atoms(self) -> Iterator[_Atom]:
        """Every atom base appearing at the top polynomial level."""
        for mono, _coeff in self._terms:
            for base, _exp in mono:
                if isinstance(base, _Atom):
                    yield base

    def integer_coeffs(self) -> bool:
        return all(type(coeff) is int for _mono, coeff in self._terms)

    def term_count(self) -> int:
        count = len(self._terms)
        for atom in self.atoms():
            if isinstance(atom, BoundedSum):
                count += atom.body.term_count()
            elif isinstance(atom, (Mod, FloorDiv, Pos, Ge0)):
                count += atom.arg.term_count()
        return count

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other) -> "SymExpr":
        terms = dict(self._terms)
        _accumulate(terms, SymExpr._coerce(other))
        return SymExpr(terms)

    __radd__ = __add__

    def __neg__(self) -> "SymExpr":
        return SymExpr({mono: -coeff for mono, coeff in self._terms})

    def __sub__(self, other) -> "SymExpr":
        return self + (-SymExpr._coerce(other))

    def __rsub__(self, other) -> "SymExpr":
        return SymExpr._coerce(other) + (-self)

    def __mul__(self, other) -> "SymExpr":
        other = SymExpr._coerce(other)
        terms: Dict[_Monomial, _Coeff] = {}
        for mono_a, coeff_a in self._terms:
            for mono_b, coeff_b in other._terms:
                if not mono_a:
                    mono = mono_b
                elif not mono_b:
                    mono = mono_a
                else:
                    powers: Dict[_Base, int] = dict(mono_a)
                    for base, exp in mono_b:
                        powers[base] = powers.get(base, 0) + exp
                    mono = tuple(sorted(powers.items(), key=_mono_sort_key))
                terms[mono] = terms.get(mono, 0) + coeff_a * coeff_b
        return SymExpr(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, SymExpr) and self._terms == other._terms

    def __reduce__(self):
        # Re-sort on load: term order follows process-local atom indices.
        return (SymExpr, (dict(self._terms),))

    def __hash__(self) -> int:
        value = self._hashv
        if value is None:
            value = hash(self._terms)
            object.__setattr__(self, "_hashv", value)
        return value

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self._terms:
            factors = [str(coeff)] if (coeff != 1 or not mono) else []
            for base, exp in mono:
                text = base if isinstance(base, str) else repr(base)
                factors.append(text if exp == 1 else f"{text}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    # -- evaluation -----------------------------------------------------
    def _eval_plan(self):
        """``(den, ((int_coeff, mono), ...))`` — integer-arithmetic plan.

        Folding every coefficient onto one common denominator turns the
        hot per-term work into plain int multiplication; the single
        division happens once per (memoized) subexpression.
        """
        plan = self._plan
        if plan is None:
            from math import gcd

            den = 1
            for _mono, coeff in self._terms:
                den = den * coeff.denominator // gcd(den, coeff.denominator)
            terms = tuple(
                (int(coeff * den), mono) for mono, coeff in self._terms
            )
            plan = (den, terms)
            object.__setattr__(self, "_plan", plan)
        return plan

    def _evaluate(self, env: Mapping[str, int], memo: Dict):
        key = id(self)
        cached = memo.get(key)
        if cached is not None:
            return cached
        den, terms = self._eval_plan()
        total = 0
        for coeff, mono in terms:
            value = coeff
            for base, exp in mono:
                if not value:
                    break
                if isinstance(base, str):
                    try:
                        factor = env[base]
                    except KeyError:
                        raise SymbolicUnsupported(
                            f"unbound symbol {base!r} at evaluation"
                        )
                else:
                    akey = id(base)
                    factor = memo.get(akey)
                    if factor is None:
                        factor = base.evaluate(env, memo)
                        memo[akey] = factor
                value *= factor ** exp
            total += value
        result = total if den == 1 else Fraction(total, den)
        memo[key] = result
        return result

    def evaluate(self, env: Mapping[str, int], memo: Optional[Dict] = None) -> int:
        """Exact integer value under ``env``.

        Raises :class:`SymbolicUnsupported` when the value is not an
        integer — derived counting forms are always integral on their
        domain, so a fractional value signals an out-of-domain call.
        """
        value = self._evaluate(env, {} if memo is None else memo)
        if value.denominator != 1:
            raise SymbolicUnsupported(
                f"non-integral value {value} for {self!r}"
            )
        return int(value)

    # -- substitution ---------------------------------------------------
    def subs(self, name: str, replacement: "SymExpr") -> "SymExpr":
        """Substitute ``name := replacement`` (rebuilding atoms exactly)."""
        return self._subs(name, SymExpr._coerce(replacement), {})

    def _subs(
        self, name: str, replacement: "SymExpr", memo: Dict[_Atom, "SymExpr"]
    ) -> "SymExpr":
        """:meth:`subs` sharing ``memo`` — rewritten binder-free atoms —
        across the whole substitution, nested atom arguments included."""
        if not self.depends_on(name):
            return self
        terms: Dict[_Monomial, _Coeff] = {}
        for mono, coeff in self._terms:
            term = SymExpr._const(coeff)
            for base, exp in mono:
                if isinstance(base, str):
                    factor = replacement if base == name else SymExpr._symbol(base)
                else:
                    factor = SymExpr._atom_subs(base, name, replacement, memo)
                for _ in range(exp):
                    term = term * factor
            _accumulate(terms, term)
        return SymExpr(terms)

    @staticmethod
    def _atom_subs(
        atom: _Atom, name: str, replacement: "SymExpr",
        memo: Dict[_Atom, "SymExpr"],
    ) -> "SymExpr":
        if not atom.depends_on(name):
            return SymExpr._atom(atom)
        # Only binder-free atoms are memoized: rewriting a sum may draw
        # a fresh binder name, and every occurrence must draw its own in
        # the same order as an unmemoized substitution would.
        cached = memo.get(atom)
        if cached is not None:
            return cached
        if isinstance(atom, Mod):
            modulus = atom.modulus
            if _modulus_depends(modulus, name):
                modulus = modulus._subs(name, replacement, memo)
            result = mod(atom.arg._subs(name, replacement, memo), modulus)
        elif isinstance(atom, FloorDiv):
            modulus = atom.modulus
            if _modulus_depends(modulus, name):
                modulus = modulus._subs(name, replacement, memo)
            result = floordiv(atom.arg._subs(name, replacement, memo), modulus)
        elif isinstance(atom, Pos):
            result = pos(atom.arg._subs(name, replacement, memo))
        elif isinstance(atom, Ge0):
            result = ge0(atom.arg._subs(name, replacement, memo))
        elif isinstance(atom, BoundedSum):
            if name == atom.var:
                return SymExpr._atom(atom)
            var, body = _unbind(atom, replacement)
            return bounded_sum(
                var,
                atom.bound._subs(name, replacement, memo),
                body._subs(name, replacement, memo),
            )
        else:
            raise SymbolicUnsupported(f"cannot substitute into {atom!r}")
        if not atom.binders():
            memo[atom] = result
        return result

    def replace_atom(self, target: _Atom, replacement: "SymExpr") -> "SymExpr":
        """Replace every occurrence of ``target`` (even nested) by an expr."""
        terms: Dict[_Monomial, _Coeff] = {}
        for mono, coeff in self._terms:
            term = SymExpr._const(coeff)
            for base, exp in mono:
                if isinstance(base, str):
                    factor = SymExpr._symbol(base)
                elif base == target:
                    factor = replacement
                else:
                    factor = SymExpr._atom_replace(base, target, replacement)
                for _ in range(exp):
                    term = term * factor
            _accumulate(terms, term)
        return SymExpr(terms)

    @staticmethod
    def _atom_replace(atom: _Atom, target: _Atom, replacement: "SymExpr") -> "SymExpr":
        if isinstance(atom, Mod):
            arg = atom.arg.replace_atom(target, replacement)
            if arg == atom.arg:
                return SymExpr._atom(atom)
            return mod(arg, atom.modulus)
        if isinstance(atom, FloorDiv):
            arg = atom.arg.replace_atom(target, replacement)
            if arg == atom.arg:
                return SymExpr._atom(atom)
            return floordiv(arg, atom.modulus)
        if isinstance(atom, Pos):
            arg = atom.arg.replace_atom(target, replacement)
            if arg == atom.arg:
                return SymExpr._atom(atom)
            return pos(arg)
        if isinstance(atom, Ge0):
            arg = atom.arg.replace_atom(target, replacement)
            if arg == atom.arg:
                return SymExpr._atom(atom)
            return ge0(arg)
        if isinstance(atom, BoundedSum):
            var, body = _unbind(atom, replacement)
            body = body.replace_atom(target, replacement)
            bound = atom.bound.replace_atom(target, replacement)
            if body == atom.body and bound == atom.bound:
                return SymExpr._atom(atom)
            return bounded_sum(var, bound, body)
        raise SymbolicUnsupported(f"cannot rewrite {atom!r}")


def _accumulate(terms: Dict[_Monomial, _Coeff], expr: SymExpr) -> None:
    """Add the terms of ``expr`` into ``terms``.

    Summing many expressions into one dict and building one
    :class:`SymExpr` at the end sorts once instead of once per addition.
    """
    for mono, coeff in expr._terms:
        terms[mono] = terms.get(mono, 0) + coeff


# ---------------------------------------------------------------------------
# public constructors (with exact-identity rewrites)
# ---------------------------------------------------------------------------

def sym(name: str) -> SymExpr:
    """The symbol ``name``."""
    return SymExpr._symbol(name)


def const(value) -> SymExpr:
    """The constant ``value`` (int or Fraction)."""
    return SymExpr._const(value)


_FRESH = [0]


def fresh_name() -> str:
    """A globally fresh bound-variable name (for sums)."""
    _FRESH[0] += 1
    return f"__q{_FRESH[0]}"


def _modulus_norm(modulus):
    """Normalize a modulus: a positive int or a SymExpr."""
    if isinstance(modulus, int):
        if modulus <= 0:
            raise SymbolicUnsupported(f"non-positive modulus {modulus}")
        return modulus
    modulus = SymExpr._coerce(modulus)
    if modulus.is_const():
        value = modulus.const_value()
        if type(value) is not int or value <= 0:
            raise SymbolicUnsupported(f"bad modulus {value}")
        return value
    return modulus


def _split_divisible(expr: SymExpr, modulus) -> Tuple[SymExpr, SymExpr]:
    """Split ``expr = modulus*quotient + remainder`` exactly.

    Only monomials that are *syntactically* integer multiples of the
    modulus move into the quotient: for a concrete modulus an integer
    coefficient divisible by it, for a single-symbol modulus a monomial
    containing that symbol with integer coefficient.  This keeps the
    identities ``floor((m*A + r)/m) = A + floor(r/m)`` and
    ``(m*A + r) mod m = r mod m`` valid for every integer assignment
    (``A`` is integer-valued by the integer-coefficient restriction and
    the integrality of all bases).
    """
    if isinstance(modulus, int):
        mod_coeff = modulus
        mod_powers: Dict[_Base, int] = {}
    elif len(modulus._terms) == 1:
        mono, mcoeff = modulus._terms[0]
        if type(mcoeff) is not int or mcoeff <= 0:
            return SymExpr({}), expr
        mod_coeff = mcoeff
        mod_powers = dict(mono)
    else:
        return SymExpr({}), expr
    quotient: Dict[_Monomial, _Coeff] = {}
    remainder: Dict[_Monomial, _Coeff] = {}
    for mono2, coeff in expr._terms:
        powers = dict(mono2)
        if (
            type(coeff) is int
            and coeff % mod_coeff == 0
            and all(powers.get(base, 0) >= exp for base, exp in mod_powers.items())
        ):
            for base, exp in mod_powers.items():
                powers[base] -= exp
            reduced = tuple(
                sorted(
                    ((b, e) for b, e in powers.items() if e),
                    key=_mono_sort_key,
                )
            )
            quotient[reduced] = quotient.get(reduced, 0) + coeff // mod_coeff
        else:
            remainder[mono2] = coeff
    return SymExpr(quotient), SymExpr(remainder)


def _require_integer_coeffs(expr: SymExpr, what: str) -> None:
    if not expr.integer_coeffs():
        raise SymbolicUnsupported(f"fractional coefficients in {what}: {expr!r}")


def mod(expr, modulus) -> SymExpr:
    """``expr mod modulus`` as a SymExpr (exact for all integer points)."""
    expr = SymExpr._coerce(expr)
    modulus = _modulus_norm(modulus)
    _require_integer_coeffs(expr, "mod argument")
    if isinstance(modulus, int) and modulus == 1:
        return SymExpr({})
    _quotient, remainder = _split_divisible(expr, modulus)
    if isinstance(modulus, int):
        reduced: Dict[_Monomial, _Coeff] = {}
        for mono, coeff in remainder._terms:
            folded = coeff % modulus
            if folded:
                reduced[mono] = folded
        remainder = SymExpr(reduced)
    if not remainder._terms:
        return SymExpr({})
    if remainder.is_const() and isinstance(modulus, int):
        return SymExpr._const(remainder.const_value() % modulus)
    if len(remainder._terms) == 1:
        mono, coeff = remainder._terms[0]
        if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
            base = mono[0][0]
            if isinstance(base, Mod) and _modulus_key(base.modulus) == _modulus_key(modulus):
                return remainder  # mod(mod(x, m), m) = mod(x, m)
    return SymExpr._atom(Mod(remainder, modulus))


def floordiv(expr, modulus) -> SymExpr:
    """``floor(expr / modulus)`` as a SymExpr."""
    expr = SymExpr._coerce(expr)
    if isinstance(modulus, int) and modulus < 0:
        # floor(a/b) = floor((-a)/(-b))
        return floordiv(-expr, -modulus)
    modulus = _modulus_norm(modulus)
    _require_integer_coeffs(expr, "floordiv argument")
    if isinstance(modulus, int) and modulus == 1:
        return expr
    quotient, remainder = _split_divisible(expr, modulus)
    if not remainder._terms:
        return quotient
    if remainder.is_const() and isinstance(modulus, int):
        return quotient + SymExpr._const(
            remainder.const_value() // modulus
        )
    return quotient + SymExpr._atom(FloorDiv(remainder, modulus))


def _nonnegative(expr: SymExpr) -> bool:
    """Syntactically provable ``expr >= 0`` (conservative)."""
    for mono, coeff in expr._terms:
        if coeff < 0:
            return False
        for base, _exp in mono:
            if isinstance(base, str):
                return False
            if not isinstance(base, (Mod, Pos, Ge0)):
                return False
    return True


def pos(expr) -> SymExpr:
    """``max(0, expr)`` as a SymExpr."""
    expr = SymExpr._coerce(expr)
    if expr.is_const():
        value = expr.const_value()
        return SymExpr._const(value if value > 0 else 0)
    if _nonnegative(expr):
        return expr
    return SymExpr._atom(Pos(expr))


def smin(a, b) -> SymExpr:
    """``min(a, b)`` via ``a - max(0, a - b)``."""
    a = SymExpr._coerce(a)
    b = SymExpr._coerce(b)
    return a - pos(a - b)


def smax(a, b) -> SymExpr:
    """``max(a, b)`` via ``a + max(0, b - a)``."""
    a = SymExpr._coerce(a)
    b = SymExpr._coerce(b)
    return a + pos(b - a)


def ge0(expr) -> SymExpr:
    """Indicator ``1 if expr >= 0 else 0`` for integer-valued ``expr``."""
    expr = SymExpr._coerce(expr)
    if expr.is_const():
        return SymExpr._const(1 if expr.const_value() >= 0 else 0)
    if _nonnegative(expr):
        return SymExpr._const(1)
    return SymExpr._atom(Ge0(expr))


def eq0(expr) -> SymExpr:
    """Indicator ``1 if expr == 0 else 0`` for integer-valued ``expr``."""
    expr = SymExpr._coerce(expr)
    if _nonnegative(expr):
        # 0 <= expr: expr == 0 iff -expr >= 0.
        return ge0(-expr)
    return ge0(expr) * ge0(-expr)


def _rebind(var: str, body: SymExpr) -> Tuple[str, SymExpr]:
    """``(fresh, body)`` with the sum variable ``var`` renamed throughout."""
    fresh = fresh_name()
    return fresh, body.subs(var, sym(fresh))


def _unbind(atom: "BoundedSum", incoming: SymExpr) -> Tuple[str, SymExpr]:
    """The sum's binder and body, renamed when ``incoming`` — about to be
    placed inside the sum by a substitution or an atom replacement —
    mentions the binder as a free symbol (which it would capture)."""
    if atom.var in incoming.free_symbols():
        return _rebind(atom.var, atom.body)
    return atom.var, atom.body


def bounded_sum(var: str, bound, body) -> SymExpr:
    """``sum(body for var in [0, max(0, bound)))`` as a SymExpr.

    Binders are hygienic by construction: when ``var`` is also free in
    ``bound`` or rebound by a sum nested in ``body``, the new sum binds
    a fresh name instead.  A compiled evaluator caches atoms per loop
    scope by structure, so one name with two meanings in a scope chain
    would share a cached value between them.  Sibling sums keep their
    one shared binder — that is what fuses them into one loop.
    """
    bound = SymExpr._coerce(bound)
    body = SymExpr._coerce(body)
    if not body._terms:
        return SymExpr({})
    if not body.depends_on(var):
        if bound.is_const():
            value = bound.const_value()
            if type(value) is not int:
                raise SymbolicUnsupported(f"non-integral sum bound {value}")
            return body * max(0, value)
        return body * pos(bound)
    if bound.is_const():
        value = bound.const_value()
        if type(value) is not int:
            raise SymbolicUnsupported(f"non-integral sum bound {value}")
        count = max(0, value)
        if count <= 16:
            total = SymExpr({})
            for point in range(count):
                total = total + body.subs(var, SymExpr._const(point))
            return total
    if var in bound.free_symbols() or var in body.binders():
        var, body = _rebind(var, body)
    return SymExpr._atom(BoundedSum(var, bound, body))


# ---------------------------------------------------------------------------
# Faulhaber power sums
# ---------------------------------------------------------------------------

_POWER_SUM_CACHE: Dict[int, Tuple[_Coeff, ...]] = {}


def _power_sum_coeffs(k: int) -> Tuple[_Coeff, ...]:
    """Coefficients ``c[j]`` with ``sum(q**k for q in [0,T)) = sum c[j]*T**j``.

    Derived through the binomial basis: ``q**k = sum_j S(k,j) * j! * C(q,j)``
    and ``sum_{q<T} C(q,j) = C(T, j+1)`` — integer arithmetic up to the
    one division by ``(j+1)!``, the only source of non-integral
    coefficients in a derived form.
    """
    cached = _POWER_SUM_CACHE.get(k)
    if cached is not None:
        return cached
    if k > 16:
        raise SymbolicUnsupported(f"power sum degree {k} too large")
    # Stirling numbers of the second kind S(k, j).
    stirling = [[0] * (k + 1) for _ in range(k + 1)]
    stirling[0][0] = 1
    for n in range(1, k + 1):
        for j in range(1, n + 1):
            stirling[n][j] = j * stirling[n - 1][j] + stirling[n - 1][j - 1]
    coeffs: List[_Coeff] = [0] * (k + 2)
    for j in range(k + 1):
        if stirling[k][j] == 0:
            continue
        factorial = 1
        for i in range(1, j + 1):
            factorial *= i
        weight = stirling[k][j] * factorial
        # C(T, j+1) = T(T-1)...(T-j) / (j+1)! as a polynomial in T.
        poly = [1]
        for i in range(j + 1):
            nxt = [0] * (len(poly) + 1)
            for d, c in enumerate(poly):
                nxt[d + 1] += c
                nxt[d] -= c * i
            poly = nxt
        denominator = factorial * (j + 1)
        for d, c in enumerate(poly):
            coeffs[d] += Fraction(weight * c, denominator)
    result = tuple(
        c.numerator if c.denominator == 1 else c for c in coeffs
    )
    _POWER_SUM_CACHE[k] = result
    return result


def _power_sum(k: int, trips: SymExpr) -> SymExpr:
    """``sum(q**k for q in [0, trips))`` as a polynomial in ``trips``."""
    if k == 0:
        return trips
    total = SymExpr({})
    power = SymExpr._const(1)
    for coeff in _power_sum_coeffs(k):
        if coeff:
            total = total + power * SymExpr._const(coeff)
        power = power * trips
    return total


# ---------------------------------------------------------------------------
# symbolic summation
# ---------------------------------------------------------------------------

def _atom_obstructions(expr: SymExpr, var: str):
    """Var-dependent atoms at the top level, innermost-resolvable first.

    Yields ``(atom, inner)`` pairs where ``inner`` is True when the atom's
    argument depends on ``var`` only polynomially (no var-dependent atom
    inside) — those are the ones a split can eliminate directly.
    """
    seen = set()

    def _walk(e: SymExpr):
        for atom in e.atoms():
            if atom in seen or not atom.depends_on(var):
                continue
            seen.add(atom)
            if isinstance(atom, BoundedSum):
                yield (atom, False)
                continue
            nested = list(_walk(atom.arg))
            for item in nested:
                yield item
            yield (atom, not nested)

    return list(_walk(expr))


def _as_poly_in(expr: SymExpr, var: str) -> Optional[Dict[int, SymExpr]]:
    """``expr`` as ``{degree: coefficient}`` in ``var`` — None when an atom
    at the top level depends on ``var``."""
    result: Dict[int, SymExpr] = {}
    for mono, coeff in expr._terms:
        degree = 0
        rest: Dict[_Base, int] = {}
        for base, exp in mono:
            if isinstance(base, str) and base == var:
                degree = exp
                continue
            if isinstance(base, _Atom) and base.depends_on(var):
                return None
            rest[base] = exp
        reduced = tuple(
            sorted(rest.items(), key=lambda kv: _base_sort_key(kv[0]))
        )
        result[degree] = result.get(degree, SymExpr({})) + SymExpr({reduced: coeff})
    return result


def _affine_in(expr: SymExpr, var: str) -> Optional[Tuple[SymExpr, SymExpr]]:
    """``expr = slope*var + intercept`` (slope var-free), or None."""
    poly = _as_poly_in(expr, var)
    if poly is None:
        return None
    if any(degree > 1 for degree in poly):
        return None
    return poly.get(1, SymExpr({})), poly.get(0, SymExpr({}))


def _signed_slope(slope: SymExpr, positive: frozenset):
    """``(sign, |slope|)`` when the slope's sign is statically known.

    A slope qualifies when it is a single monomial with an integer
    coefficient whose bases are all symbols declared positive (>= 1) by
    the caller — e.g. the processor count in a wrapped schedule stride.
    Returns None otherwise.
    """
    if slope.is_const():
        value = slope.const_value()
        if type(value) is not int or value == 0:
            return None
        return (1 if value > 0 else -1), abs(value)
    if len(slope._terms) != 1:
        return None
    mono, coeff = slope._terms[0]
    if type(coeff) is not int:
        return None
    for base, _exp in mono:
        if not (isinstance(base, str) and base in positive):
            return None
    sign = 1 if coeff > 0 else -1
    return sign, slope * sign


def eval_cost(expr: SymExpr, extent_hint) -> int:
    """Rough flat-operation count for one evaluation of ``expr``.

    ``extent_hint(bound) -> int`` estimates a bounded sum's trip count
    (callers know which symbols they can bind); everything else counts
    one unit per polynomial term, recursing into atom arguments.  The
    estimate steers two decisions — whether a closed form beats the
    loop it replaced, and whether the symbolic tier beats the next tier
    for a concrete cell — so it only needs to rank, not to be exact.
    """
    cost = len(expr._terms)
    for atom in expr.atoms():
        if isinstance(atom, BoundedSum):
            cost += max(0, extent_hint(atom.bound)) * (
                1 + eval_cost(atom.body, extent_hint)
            )
        else:
            cost += eval_cost(atom.arg, extent_hint)
    return cost


def _deep_atoms(expr: SymExpr, out: List[_Atom]) -> List[_Atom]:
    """Every atom in ``expr``, including atoms nested inside atom args."""
    for atom in expr.atoms():
        out.append(atom)
        if isinstance(atom, BoundedSum):
            _deep_atoms(atom.bound, out)
            _deep_atoms(atom.body, out)
        else:
            _deep_atoms(atom.arg, out)
    return out


def _domain_simplify(expr: SymExpr, var: str) -> SymExpr:
    """Resolve atoms the summation domain ``var >= 0`` already decides.

    Inside ``sym_sum`` the variable only takes values in
    ``[0, max(0, trips))``, so ``pos(k*var)`` is ``k*var`` (k > 0),
    ``pos(-k*var)`` is ``0``, and ``ge0(k*var)`` is ``1`` — even nested
    inside other atoms' arguments.  Resolving them before range
    splitting matters: each unresolved positive-part arm doubles the
    split count, so two vacuous arms cost a factor of four in result
    size for no information.
    """
    changed = True
    while changed:
        changed = False
        for atom in _deep_atoms(expr, []):
            if not isinstance(atom, (Pos, Ge0)):
                continue
            terms = atom.arg._terms
            if len(terms) != 1 or terms[0][0] != ((var, 1),):
                continue
            coeff = terms[0][1]
            if coeff > 0:
                new = atom.arg if isinstance(atom, Pos) else SymExpr._const(1)
            elif isinstance(atom, Pos):
                new = SymExpr({})
            else:
                continue  # ge0(-k*var) is an equality test, not constant
            replaced = expr.replace_atom(atom, new)
            if replaced != expr:
                expr = replaced
                changed = True
                break
    return expr


def sym_sum(
    expr: SymExpr, var: str, trips: SymExpr, budget: List[int],
    positive: frozenset = frozenset(),
) -> SymExpr:
    """Exact ``sum(expr for var in [0, max(0, trips)))``, symbolically.

    ``trips`` must not depend on ``var``; symbols in ``positive`` are
    assumed >= 1 (the processor count), which lets range splits handle
    strides proportional to them.  Raises :class:`SymbolicUnsupported`
    outside the summable fragment.

    ``budget`` is a one-slot list holding the work still allowed; every
    call, recursive splits included, charges ``1 + term_count`` of the
    expression it sums, and raises :class:`SymbolicUnsupported` once the
    budget cannot cover it.  Nested bounds (``smax``/``smin`` chains)
    make range splitting exponential in the number of arms, so the
    budget turns a multi-minute grind into a fast, catchable failure.
    """
    if not expr.depends_on(var):
        return expr * pos(trips)
    simplified = _domain_simplify(expr, var)
    if simplified != expr:
        expr = simplified
        if not expr.depends_on(var):
            return expr * pos(trips)
    cost = 1 + expr.term_count()
    if budget[0] < cost:
        raise SymbolicUnsupported("symbolic summation budget exhausted")
    budget[0] -= cost

    obstructions = _atom_obstructions(expr, var)

    # 1. Exchange summation with var-dependent inner sums.
    for atom, _inner in obstructions:
        if isinstance(atom, BoundedSum):
            return _swap_bounded_sum(expr, var, trips, atom, budget, positive)

    # 2. Residue-split Mod/FloorDiv atoms whose arg is polynomial in var.
    # Prefer a symbolic modulus (the processor count): one split then
    # collapses every mod-P atom at once.
    residue_modulus = None
    for atom, inner in obstructions:
        if inner and isinstance(atom, (Mod, FloorDiv)):
            if _modulus_depends(atom.modulus, var):
                raise SymbolicUnsupported(
                    f"summation variable inside modulus of {atom!r}"
                )
            if residue_modulus is None or not isinstance(atom.modulus, int):
                residue_modulus = atom.modulus
            if not isinstance(residue_modulus, int):
                break
    if residue_modulus is not None:
        return _residue_split(
            expr, var, trips, residue_modulus, budget, positive
        )

    # 3. Range-split Pos/Ge0 atoms with an affine, known-sign-slope
    # argument.  Indicators first: their split replaces the atom with a
    # 0/1 constant, shrinking the expression.
    blocked_split = None
    for wanted in (Ge0, Pos):
        for atom, inner in obstructions:
            if inner and isinstance(atom, wanted):
                affine = _affine_in(atom.arg, var)
                if affine is None:
                    # Often an outer smax/smin arm whose argument holds a
                    # nested Pos atom: splitting the affine atoms first
                    # resolves it from the inside out.
                    blocked_split = atom
                    continue
                return _pos_split(
                    expr, var, trips, atom, affine, budget, positive
                )
    if blocked_split is not None:
        raise SymbolicUnsupported(
            f"cannot split non-affine positive part {blocked_split!r}"
        )

    if obstructions:
        raise SymbolicUnsupported(
            f"cannot sum over {var!r}: {obstructions[0][0]!r}"
        )

    # 4. Pure polynomial in var: Faulhaber.
    poly = _as_poly_in(expr, var)
    if poly is None:  # pragma: no cover - guarded by the obstruction scan
        raise SymbolicUnsupported(f"cannot sum {expr!r} over {var!r}")
    total = SymExpr({})
    clamped = pos(trips)
    for degree, coefficient in poly.items():
        total = total + coefficient * _power_sum(degree, clamped)
    return total


def _swap_bounded_sum(
    expr: SymExpr, var: str, trips: SymExpr, atom: BoundedSum,
    budget: List[int], positive: frozenset,
) -> SymExpr:
    """``sum_var (c * B * rest) = c * BoundedSum(r, b, sum_var(body*rest))``.

    Terms not containing ``atom`` are summed separately; for terms that
    do, every var-dependent cofactor moves inside the exchanged sum.
    """
    if atom.bound.depends_on(var):
        raise SymbolicUnsupported(
            f"summation variable in inner sum bound {atom!r}"
        )
    with_atom: Dict[_Monomial, _Coeff] = {}
    without: Dict[_Monomial, _Coeff] = {}
    for mono, coeff in expr._terms:
        if any(base == atom for base, _exp in mono):
            with_atom[mono] = coeff
        else:
            without[mono] = coeff
    if not with_atom:
        # The atom only occurs nested inside another atom's argument;
        # no sound exchange rule applies there.
        raise SymbolicUnsupported(
            f"inner sum nested inside another atom: {atom!r}"
        )
    rest_sum = (
        sym_sum(SymExpr(without), var, trips, budget, positive)
        if without else SymExpr({})
    )

    total = rest_sum
    fresh = fresh_name()
    body = atom.body.subs(atom.var, sym(fresh))
    for mono, coeff in with_atom.items():
        outside = SymExpr._const(coeff)
        inside = body
        for base, exp in mono:
            if base == atom:
                # B**e = B**(e-1) * B: keep the extra copies as the
                # original atom so the recursive sum exchanges each with
                # its own fresh bound variable (summing a renamed body
                # e times would square the inner sum instead).
                for _ in range(exp - 1):
                    inside = inside * SymExpr._atom(atom)
                continue
            factor = (
                SymExpr._symbol(base) if isinstance(base, str)
                else SymExpr._atom(base)
            )
            piece = factor
            for _ in range(exp - 1):
                piece = piece * factor
            if piece.depends_on(var):
                inside = inside * piece
            else:
                outside = outside * piece
        summed = sym_sum(inside, var, trips, budget, positive)
        total = total + outside * bounded_sum(fresh, atom.bound, summed)
    return total


def _residue_split(
    expr: SymExpr, var: str, trips: SymExpr, modulus, budget: List[int],
    positive: frozenset,
) -> SymExpr:
    """``sum_{q<T} f(q) = sum_{r<M} sum_{t<T_r} f(r + M*t)``."""
    t_var = fresh_name()
    r_var = fresh_name()
    if isinstance(modulus, int):
        modulus_expr = SymExpr._const(modulus)
    else:
        modulus_expr = modulus
    substituted = expr.subs(var, sym(r_var) + modulus_expr * sym(t_var))
    inner_trips = pos(floordiv(trips - 1 - sym(r_var), modulus) + 1)
    inner = sym_sum(substituted, t_var, inner_trips, budget, positive)
    return bounded_sum(r_var, modulus_expr, inner)


def _pos_split(
    expr: SymExpr,
    var: str,
    trips: SymExpr,
    atom: _Atom,
    affine: Tuple[SymExpr, SymExpr],
    budget: List[int],
    positive: frozenset,
) -> SymExpr:
    """Split ``[0, trips)`` at the sign change of an affine Pos/Ge0 arg."""
    slope, intercept = affine
    signed = _signed_slope(slope, positive)
    if signed is None:
        raise SymbolicUnsupported(
            f"positive part with sign-unknown slope {slope!r} in {atom!r}"
        )
    sign, magnitude = signed
    _require_integer_coeffs(intercept, "positive-part intercept")
    clamped = pos(trips)
    if sign > 0:
        # arg >= 0 iff var >= ceil(-intercept/|slope|) =: z0.
        z0 = -floordiv(intercept, magnitude)
        zero_first = True
    else:
        # arg >= 0 iff var <= floor(intercept/|slope|); first zero position.
        z0 = floordiv(intercept, magnitude) + 1
        zero_first = False
    z = smin(pos(z0), clamped)  # clamp to [0, trips]
    # Below the breakpoint the argument is negative, above nonnegative:
    # a Pos atom becomes 0 / its argument, a Ge0 indicator becomes 0 / 1.
    if isinstance(atom, Ge0):
        active = SymExpr._const(1)
    else:
        active = atom.arg
    low_value, high_value = (
        (SymExpr({}), active) if zero_first else (active, SymExpr({}))
    )

    low_part = sym_sum(
        expr.replace_atom(atom, low_value), var, z, budget, positive
    )
    # The upper piece is a difference of formal prefix sums: derive
    # sum_{var in [0, u)} once with a symbolic limit u, then evaluate at
    # both endpoints.  (Substituting var := z + t instead would thread
    # the breakpoint's atom tree through every deeper split and blow the
    # form up combinatorially.)
    u_var = fresh_name()
    formal = sym_sum(
        expr.replace_atom(atom, high_value), var, sym(u_var), budget,
        positive,
    )
    high_part = formal.subs(u_var, clamped) - formal.subs(u_var, z)
    return low_part + high_part


# ---------------------------------------------------------------------------
# form compilation
# ---------------------------------------------------------------------------

def _exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise SymbolicUnsupported(
            f"non-integral value {num}/{den} in compiled form"
        )
    return quot


def _checked_mod(value, m):
    if m <= 0:
        raise SymbolicUnsupported(f"non-positive modulus {m}")
    return value % m


def _checked_fdiv(value, m):
    if m <= 0:
        raise SymbolicUnsupported(f"non-positive modulus {m}")
    return value // m


def _mono_depends(mono: _Monomial, var: str) -> bool:
    """Whether a monomial's value changes with the bound variable ``var``."""
    for base, _exp in mono:
        if isinstance(base, str):
            if base == var:
                return True
        elif base.depends_on(var):
            return True
    return False


def _shallow_atoms(expr: SymExpr, out: List[_Atom]) -> List[_Atom]:
    """Atoms of ``expr`` including those nested in atom arguments, but
    *not* descending into bounded-sum interiors (those belong to the
    nested loop's own scope)."""
    for atom in expr.atoms():
        out.append(atom)
        if not isinstance(atom, BoundedSum):
            _shallow_atoms(atom.arg, out)
    return out


def _flat_ops(expr: SymExpr) -> int:
    """Straight-line op estimate for one evaluation, loop interiors
    excluded — the per-iteration cost share of a fused loop body."""
    ops = len(expr._terms)
    for atom in set(expr.atoms()):
        if not isinstance(atom, BoundedSum):
            ops += 1 + _flat_ops(atom.arg)
    return ops


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

class _Scope:
    """Atom -> local-variable cache, chained through enclosing scopes.

    A loop body's scope binds the sum variable ``var``: a lookup never
    climbs past it for an atom depending on ``var``, because outside
    the loop that name — when free there at all — means something else.
    """

    __slots__ = ("parent", "cache", "var")

    def __init__(
        self, parent: Optional["_Scope"] = None, var: Optional[str] = None
    ) -> None:
        self.parent = parent
        self.cache: Dict[_Atom, str] = {}
        self.var = var

    def lookup(self, atom: _Atom) -> Optional[str]:
        scope = self
        while scope is not None:
            name = scope.cache.get(atom)
            if name is not None:
                return name
            if scope.var is not None and atom.depends_on(scope.var):
                return None
            scope = scope.parent
        return None


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.loads: List[str] = []
        self.count = 0
        self.symmap: Dict[str, str] = {}
        self.induction: Dict[_Atom, str] = {}
        self.groups_meta: List[Dict] = []
        self._meta_stack: List[List[Dict]] = [self.groups_meta]

    def temp(self) -> str:
        self.count += 1
        return f"_t{self.count}"

    def load_symbol(self, name: str) -> str:
        local = self.symmap.get(name)
        if local is None:
            local = self.temp()
            self.symmap[name] = local
            self.loads.append(f"    {local} = env[{name!r}]")
        return local

    def expr_code(self, expr: SymExpr, scope: _Scope, indent: int) -> str:
        den, terms = expr._eval_plan()
        if not terms:
            return "0"
        body = self.terms_code(terms, scope, indent)
        if den != 1:
            body = f"_exact_div({body}, {den})"
        return f"({body})"

    def terms_code(self, terms, scope: _Scope, indent: int) -> str:
        """Render a subset of an eval plan's integer-scaled terms."""
        parts = []
        for coeff, mono in terms:
            factors = []
            for base, exp in mono:
                code = self.base_code(base, scope, indent)
                factors.append(code if exp == 1 else f"{code}**{exp}")
            if coeff != 1 or not factors:
                factors.insert(0, repr(coeff))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def _modulus_code(self, modulus, scope: _Scope, indent: int) -> str:
        if isinstance(modulus, int):
            return repr(modulus)
        return self.expr_code(modulus, scope, indent)

    def base_code(self, base: _Base, scope: _Scope, indent: int) -> str:
        if isinstance(base, str):
            return self.load_symbol(base)
        cached = scope.lookup(base)
        if cached is not None:
            return cached
        pad = "    " * indent
        if isinstance(base, (Mod, FloorDiv)):
            register = self.induction.get(base)
            arg = (
                register
                if register is not None
                else self.expr_code(base.arg, scope, indent)
            )
            op = "%" if isinstance(base, Mod) else "//"
            var = self.temp()
            if isinstance(base.modulus, int):
                # constructors guarantee int moduli are positive
                self.lines.append(f"{pad}{var} = {arg} {op} {base.modulus}")
            else:
                fn = "_checked_mod" if isinstance(base, Mod) else "_checked_fdiv"
                m = self._modulus_code(base.modulus, scope, indent)
                self.lines.append(f"{pad}{var} = {fn}({arg}, {m})")
        elif isinstance(base, Pos):
            register = self.induction.get(base)
            arg = (
                register
                if register is not None
                else self.expr_code(base.arg, scope, indent)
            )
            var = self.temp()
            self.lines.append(f"{pad}{var} = {arg}")
            self.lines.append(f"{pad}if {var} < 0:")
            self.lines.append(f"{pad}    {var} = 0")
        elif isinstance(base, Ge0):
            register = self.induction.get(base)
            arg = (
                register
                if register is not None
                else self.expr_code(base.arg, scope, indent)
            )
            var = self.temp()
            self.lines.append(f"{pad}{var} = 1 if {arg} >= 0 else 0")
        elif isinstance(base, BoundedSum):
            self.emit_group(base.var, base.bound, [base], scope, indent)
            return scope.cache[base]
        else:  # pragma: no cover - new atom kinds must be handled here
            raise SymbolicUnsupported(f"cannot compile atom {base!r}")
        scope.cache[base] = var
        return var

    # -- fused sum emission ---------------------------------------------

    def emit_outputs(
        self, exprs: List[SymExpr], scope: _Scope, indent: int
    ) -> List[str]:
        term_lists = [expr._eval_plan()[1] for expr in exprs]
        for (var, bound), members in self._collect_groups(term_lists, scope):
            self.emit_group(var, bound, members, scope, indent)
        return [self.expr_code(expr, scope, indent) for expr in exprs]

    def _collect_groups(self, term_lists, scope: _Scope):
        """Top-level bounded sums grouped by summation level.

        The derivation binds one fresh variable per level, so grouping
        by ``(var, bound)`` reunites the per-field contributions of one
        loop level; everything in a group runs under one emitted loop."""
        order: List[Tuple[str, SymExpr]] = []
        buckets: Dict[Tuple[str, SymExpr], List[BoundedSum]] = {}
        for terms in term_lists:
            for _coeff, mono in terms:
                for base, _exp in mono:
                    if not isinstance(base, BoundedSum):
                        continue
                    if scope.lookup(base) is not None:
                        continue
                    key = (base.var, base.bound)
                    bucket = buckets.get(key)
                    if bucket is None:
                        bucket = []
                        buckets[key] = bucket
                        order.append(key)
                    if base not in bucket:
                        bucket.append(base)
        return [(key, buckets[key]) for key in order]

    def _induction_registers(
        self, var: str, members: List[BoundedSum], scope: _Scope, indent: int
    ):
        """Pre-loop registers for atom arguments affine in ``var``.

        Inside the loop the atom reads its register and the register
        advances by the loop-invariant slope each iteration — strength
        reduction replacing per-iteration re-evaluation of
        Mod/FloorDiv/Pos/Ge0 argument polynomials."""
        pad = "    " * indent
        registers = []
        seen = set()
        for member in members:
            for atom in _shallow_atoms(member.body, []):
                if atom in seen:
                    continue
                seen.add(atom)
                if isinstance(atom, BoundedSum) or not atom.depends_on(var):
                    continue
                if atom in self.induction:
                    continue
                if isinstance(atom, (Mod, FloorDiv)) and _modulus_depends(
                    atom.modulus, var
                ):
                    continue
                affine = _affine_in(atom.arg, var)
                if affine is None:
                    continue
                slope, intercept = affine
                if (
                    slope._eval_plan()[0] != 1
                    or intercept._eval_plan()[0] != 1
                ):
                    continue
                register = self.temp()
                code = self.expr_code(intercept, scope, indent)
                self.lines.append(f"{pad}{register} = {code}")
                if slope.is_const():
                    delta = repr(int(slope.const_value()))
                else:
                    delta = self.temp()
                    code = self.expr_code(slope, scope, indent)
                    self.lines.append(f"{pad}{delta} = {code}")
                registers.append((atom, register, delta))
                self.induction[atom] = register
        return registers

    def emit_group(
        self,
        var: str,
        bound: SymExpr,
        members: List[BoundedSum],
        scope: _Scope,
        indent: int,
    ) -> None:
        """One fused loop level: every member sums over the same range.

        Emits the shared trip count and one plain loop, with per-member
        invariant hoisting, induction registers, and recursive fusion of
        the members' nested sums inside the loop body.  Caches each
        member's total in ``scope``."""
        pad = "    " * indent
        bound_code = self.expr_code(bound, scope, indent)
        limit = self.temp()
        self.lines.append(f"{pad}{limit} = {bound_code}")
        self.lines.append(f"{pad}if {limit} < 0:")
        self.lines.append(f"{pad}    {limit} = 0")
        meta = {
            "bound": bound,
            "iter_ops": sum(_flat_ops(member.body) for member in members),
            "children": [],
        }
        self._meta_stack[-1].append(meta)
        for member in members:
            for atom in member._free_atoms():
                self.base_code(atom, scope, indent)
        inductions = self._induction_registers(var, members, scope, indent)
        accs: List[str] = []
        hoists: List[Optional[str]] = []
        dens: List[int] = []
        movings: List[list] = []
        for member in members:
            den, terms = member.body._eval_plan()
            moving = [t for t in terms if _mono_depends(t[1], var)]
            invariant = [t for t in terms if not _mono_depends(t[1], var)]
            # Terms free of the bound variable contribute the same value
            # every iteration: evaluate them once, multiply by the trip
            # count, and divide the common denominator out of the
            # *total* — one division per sum instead of one per
            # iteration.
            hoisted = None
            if invariant:
                hoisted = self.temp()
                code = self.terms_code(invariant, scope, indent)
                self.lines.append(f"{pad}{hoisted} = {code}")
            acc = self.temp()
            self.lines.append(f"{pad}{acc} = 0")
            accs.append(acc)
            hoists.append(hoisted)
            dens.append(den)
            movings.append(moving)
        if any(movings):
            loop = self.temp()
            self.lines.append(f"{pad}for {loop} in range({limit}):")
            body_indent = indent + 1
            bpad = "    " * body_indent
            saved = self.symmap.get(var)
            self.symmap[var] = loop
            inner = _Scope(scope, var)
            self._meta_stack.append(meta["children"])
            for (nvar, nbound), nested in self._collect_groups(movings, inner):
                self.emit_group(nvar, nbound, nested, inner, body_indent)
            self._meta_stack.pop()
            for acc, moving in zip(accs, movings):
                if moving:
                    code = self.terms_code(moving, inner, body_indent)
                    self.lines.append(f"{bpad}{acc} += {code}")
            for _atom, register, delta in inductions:
                self.lines.append(f"{bpad}{register} += {delta}")
            if saved is None:
                del self.symmap[var]
            else:
                self.symmap[var] = saved
        for atom, _register, _delta in inductions:
            del self.induction[atom]
        for member, acc, hoisted, den in zip(members, accs, hoists, dens):
            total = acc if hoisted is None else f"{acc} + {hoisted}*{limit}"
            if den != 1:
                final = self.temp()
                self.lines.append(f"{pad}{final} = _exact_div({total}, {den})")
            elif hoisted is not None:
                final = self.temp()
                self.lines.append(f"{pad}{final} = {total}")
            else:
                final = acc
            scope.cache[member] = final


def _compile_exprs(exprs: List[SymExpr]):
    emitter = _Emitter()
    scope = _Scope()
    outputs = emitter.emit_outputs(exprs, scope, 1)
    lines = ["def _form(env):"]
    lines.extend(emitter.loads)
    lines.extend(emitter.lines)
    tail = "," if len(outputs) == 1 else ""
    lines.append(f"    return ({', '.join(outputs)}{tail})")
    source = "\n".join(lines) + "\n"
    namespace = {
        "_exact_div": _exact_div,
        "_checked_mod": _checked_mod,
        "_checked_fdiv": _checked_fdiv,
    }
    exec(compile(source, "<sympoly-form>", "exec"), namespace)
    form = namespace["_form"]
    # The generated text rides along for the kernel sanitizer
    # (repro.analysis.kernels) and for debugging; the cost tree feeds
    # planned_cost so promotion gates price the loops that will run.
    form.source = source
    form.cost_tree = {
        "root_ops": sum(_flat_ops(expr) for expr in exprs),
        "groups": emitter.groups_meta,
    }
    return form


def compile_account(forms: "Mapping[str, SymExpr]"):
    """One fused evaluator ``env -> tuple`` for several forms.

    This is the only compiled form of a :class:`SymExpr`: all forms
    compile into a single function, so bounded sums sharing a summation
    level — the per-field contributions of one derived program always
    do — run in one fused loop and shared atoms evaluate once.  The
    returned function carries ``fields`` (the keys of ``forms``, in
    output order), ``source`` (the generated text) and ``cost_tree``
    (for :func:`planned_cost`).

    Every form compiles.  Binder hygiene is a property of how sums are
    built (see :func:`bounded_sum`), and the emitter scopes its atom
    cache by loop, so a binder name that also occurs free elsewhere in
    the forms keeps both meanings apart.
    """
    fn = _compile_exprs(list(forms.values()))
    fn.fields = tuple(forms.keys())
    return fn


def planned_cost(tree, extent_hint) -> int:
    """Estimated flat ops for one call of a compiled evaluator.

    Prices the fused loop tree as the emitted code runs it: each group
    costs its trip count under ``extent_hint`` times one loop step plus
    its members' per-iteration ops and its nested groups.  Fused loops
    are costed once, not once per field."""

    def group_cost(meta) -> int:
        trips = extent_hint(meta["bound"])
        if trips < 0:
            trips = 0
        per_iter = 1 + meta["iter_ops"]
        for child in meta["children"]:
            per_iter += group_cost(child)
        return trips * per_iter

    total = tree["root_ops"]
    for meta in tree["groups"]:
        total += group_cost(meta)
    return total
