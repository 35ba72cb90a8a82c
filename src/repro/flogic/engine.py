"""The Transaction F-logic interpreter.

Implements the procedural semantics of the serial-Horn subset used as the
navigation calculus.  Truth of a formula is defined over *paths* — finite
sequences of database states — and the interpreter makes that operational:

* solving a query goal leaves the state unchanged;
* solving ``Ins``/``Del`` steps to a new state (stores are persistent, so
  earlier states survive for backtracking);
* solving ``Serial(a, b)`` threads the state from ``a`` into ``b``;
* solving ``Choice`` explores the alternatives on backtracking;
* defined predicates resolve SLD-style against the program's rules, with
  full support for recursion (a depth bound guards against runaway
  programs, and navigation expressions compiled from cyclic maps — the
  "More"-button loop — rely on recursion).

External *action* predicates (follow a link, submit a form, extract
tuples) are registered as builtins; to the logic they are ordinary goals
that happen to bind variables to pages and tuples.  This interpreter is
the reference semantics of navigation: :mod:`repro.navigation.executor`
runs the plan the compiler emits beside each expression's rules, and the
tests hold that plan to what this engine derives from the rules.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.flogic.formulas import (
    Choice,
    Del,
    Formula,
    Ins,
    Naf,
    Pred,
    Program,
    Rule,
    Serial,
)
from repro.flogic.store import ObjectStore
from repro.flogic.terms import Subst, Term, Var, resolve, unify

# A builtin receives the (unresolved) argument terms, the current
# substitution, and the current state; it yields (substitution, state)
# pairs for each solution.
Builtin = Callable[[tuple[Term, ...], Subst, ObjectStore], Iterator[tuple[dict, ObjectStore]]]


class DepthLimitExceeded(Exception):
    """The SLD derivation exceeded the engine's depth bound."""


class UnknownPredicate(Exception):
    """A goal matched no rule, builtin, or primitive."""


class Engine:
    """Interpreter for a :class:`~repro.flogic.formulas.Program`."""

    def __init__(
        self,
        program: Program | None = None,
        store: ObjectStore | None = None,
        depth_limit: int = 4000,
    ) -> None:
        self.program = program or Program()
        self.store = store or ObjectStore()
        self.depth_limit = depth_limit
        self._builtins: dict[tuple[str, int], Builtin] = {}
        self._rename_counter = 0
        self._register_core_builtins()

    # -- public API -----------------------------------------------------------

    def register_builtin(self, name: str, arity: int, fn: Builtin) -> None:
        """Register an external action/primitive predicate."""
        self._builtins[(name, arity)] = fn

    def solve(
        self,
        goal: Formula,
        subst: Subst | None = None,
        store: ObjectStore | None = None,
    ) -> Iterator[tuple[dict, ObjectStore]]:
        """All solutions of ``goal``: (substitution, final state) pairs."""
        yield from self._solve(goal, dict(subst or {}), store or self.store, 0)

    def ask(self, goal: Formula, bindings_of: list[Var] | None = None) -> list[dict]:
        """Convenience: solve and project each solution onto ``bindings_of``."""
        out = []
        for subst, _state in self.solve(goal):
            if bindings_of is None:
                out.append(subst)
            else:
                out.append({v.name: resolve(v, subst) for v in bindings_of})
        return out

    def succeeds(self, goal: Formula) -> bool:
        """True when ``goal`` has at least one solution."""
        for _ in self.solve(goal):
            return True
        return False

    def run(self, goal: Formula) -> ObjectStore | None:
        """Execute ``goal`` as a transaction: commit the first solution's
        final state into the engine and return it; None if the goal fails."""
        for _subst, state in self.solve(goal):
            self.store = state
            return state
        return None

    # -- the interpreter --------------------------------------------------------

    def _solve(
        self, goal: Formula, subst: dict, state: ObjectStore, depth: int
    ) -> Iterator[tuple[dict, ObjectStore]]:
        if depth > self.depth_limit:
            raise DepthLimitExceeded(
                "depth %d exceeded solving %r" % (self.depth_limit, goal)
            )
        if isinstance(goal, Serial):
            yield from self._solve_serial(goal.parts, 0, subst, state, depth)
        elif isinstance(goal, Choice):
            for part in goal.parts:
                yield from self._solve(part, subst, state, depth + 1)
        elif isinstance(goal, Naf):
            for _ in self._solve(goal.goal, subst, state, depth + 1):
                return
            yield subst, state
        elif isinstance(goal, Ins):
            yield from self._apply_update(goal, subst, state, insert=True)
        elif isinstance(goal, Del):
            yield from self._apply_update(goal, subst, state, insert=False)
        elif isinstance(goal, Pred):
            yield from self._solve_pred(goal, subst, state, depth)
        else:
            raise TypeError("cannot solve %r" % (goal,))

    def _solve_serial(
        self,
        parts: tuple[Formula, ...],
        index: int,
        subst: dict,
        state: ObjectStore,
        depth: int,
    ) -> Iterator[tuple[dict, ObjectStore]]:
        if index == len(parts):
            yield subst, state
            return
        for mid_subst, mid_state in self._solve(parts[index], subst, state, depth + 1):
            yield from self._solve_serial(parts, index + 1, mid_subst, mid_state, depth)

    def _solve_pred(
        self, goal: Pred, subst: dict, state: ObjectStore, depth: int
    ) -> Iterator[tuple[dict, ObjectStore]]:
        indicator = goal.indicator
        builtin = self._builtins.get(indicator)
        if builtin is not None:
            yield from builtin(goal.args, subst, state)
            return
        if indicator == ("isa", 2):
            for solution in state.query_isa(goal.args[0], goal.args[1], subst):
                yield solution, state
            return
        if indicator == ("attr", 3):
            for solution in state.query_attr(goal.args[0], goal.args[1], goal.args[2], subst):
                yield solution, state
            return
        rules = self.program.rules_for(indicator)
        if not rules and not self.program.defines(indicator):
            raise UnknownPredicate("no rules or builtin for %s/%d" % indicator)
        for rule in rules:
            self._rename_counter += 1
            fresh = rule.rename(self._rename_counter)
            head_subst = self._unify_pred(goal, fresh.head, subst)
            if head_subst is None:
                continue
            yield from self._solve(fresh.body, head_subst, state, depth + 1)

    @staticmethod
    def _unify_pred(goal: Pred, head: Pred, subst: dict) -> dict | None:
        current = subst
        for goal_arg, head_arg in zip(goal.args, head.args):
            current = unify(goal_arg, head_arg, current)
            if current is None:
                return None
        return dict(current)

    def _apply_update(
        self, goal: Ins | Del, subst: dict, state: ObjectStore, insert: bool
    ) -> Iterator[tuple[dict, ObjectStore]]:
        args = tuple(resolve(a, subst) for a in goal.args)
        if any(isinstance(a, Var) for a in args):
            raise ValueError("update %r has unbound arguments" % (goal,))
        if goal.kind == "isa":
            obj, cls = args
            if insert:
                yield subst, state.with_member(obj, cls)
            else:
                raise ValueError("deleting class membership is not supported")
        elif goal.kind == "attr":
            obj, attribute, value = args
            if insert:
                yield subst, state.with_attr(obj, attribute, value)
            else:
                yield subst, state.without_attr(obj, attribute, value)
        else:
            raise ValueError("unknown update kind %r" % goal.kind)

    @staticmethod
    def _term_to_goal(term: Term) -> Formula:
        """Interpret a term as a goal (for meta-predicates like findall)."""
        from repro.flogic.terms import Struct

        if isinstance(term, Struct):
            return Pred(term.functor, term.args)
        if isinstance(term, str):
            return Pred(term)
        raise ValueError("cannot call %r as a goal" % (term,))

    # -- core builtins -----------------------------------------------------------

    def _register_core_builtins(self) -> None:
        def bi_true(args, subst, state):
            yield subst, state

        def bi_fail(args, subst, state):
            return
            yield  # pragma: no cover

        def bi_eq(args, subst, state):
            unified = unify(args[0], args[1], subst)
            if unified is not None:
                yield unified, state

        def comparison(op):
            def bi(args, subst, state):
                left = resolve(args[0], subst)
                right = resolve(args[1], subst)
                if isinstance(left, Var) or isinstance(right, Var):
                    raise ValueError("comparison on unbound terms: %r %r" % (left, right))
                try:
                    if op(left, right):
                        yield subst, state
                except TypeError:
                    return

            return bi

        def bi_member(args, subst, state):
            collection = resolve(args[1], subst)
            if isinstance(collection, Var):
                raise ValueError("member/2 requires a bound collection")
            if not isinstance(collection, tuple):
                raise TypeError("member/2 expects a tuple, got %r" % (collection,))
            for item in collection:
                unified = unify(args[0], item, subst)
                if unified is not None:
                    yield unified, state

        def bi_ground(args, subst, state):
            from repro.flogic.terms import is_ground

            if is_ground(args[0], subst):
                yield subst, state

        def arithmetic(op):
            def bi(args, subst, state):
                left = resolve(args[0], subst)
                right = resolve(args[1], subst)
                if isinstance(left, Var) or isinstance(right, Var):
                    raise ValueError("arithmetic on unbound terms")
                try:
                    value = op(left, right)
                except TypeError:
                    return
                bound = unify(args[2], value, subst)
                if bound is not None:
                    yield bound, state

            return bi

        def bi_findall(args, subst, state):
            """findall(Template, Goal, List): collect every solution of Goal
            (state changes inside Goal are speculative and discarded, as in
            Prolog's findall)."""
            template, goal_term, out = args
            goal = self._term_to_goal(resolve(goal_term, subst))
            collected = tuple(
                resolve(template, solution)
                for solution, _ in self._solve(goal, dict(subst), state, 0)
            )
            bound = unify(out, collected, subst)
            if bound is not None:
                yield bound, state

        self.register_builtin("plus", 3, arithmetic(lambda a, b: a + b))
        self.register_builtin("minus", 3, arithmetic(lambda a, b: a - b))
        self.register_builtin("times", 3, arithmetic(lambda a, b: a * b))
        self.register_builtin("findall", 3, bi_findall)
        self.register_builtin("true", 0, bi_true)
        self.register_builtin("fail", 0, bi_fail)
        self.register_builtin("eq", 2, bi_eq)
        self.register_builtin("neq", 2, comparison(lambda a, b: a != b))
        self.register_builtin("lt", 2, comparison(lambda a, b: a < b))
        self.register_builtin("le", 2, comparison(lambda a, b: a <= b))
        self.register_builtin("gt", 2, comparison(lambda a, b: a > b))
        self.register_builtin("ge", 2, comparison(lambda a, b: a >= b))
        self.register_builtin("member", 2, bi_member)
        self.register_builtin("ground", 1, bi_ground)
