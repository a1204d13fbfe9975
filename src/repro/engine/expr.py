"""Expression evaluation with SPARQL error semantics.

The evaluator turns AST expressions into runtime values against a solution
mapping.  Errors raise :class:`EvaluationError`; callers decide whether an
error eliminates a solution (FILTER) or yields an unbound value (BIND and
projected expressions) — dissertation section 3.6.

SciSPARQL array semantics: subscripting an :class:`ArrayProxy` derives a
new proxy (lazy); comparisons and arithmetic resolve what they need.
"""

from __future__ import annotations

from typing import List, Optional

from repro.arrays import ops as array_ops
from repro.arrays.nma import NumericArray, Span
from repro.arrays.proxy import ArrayProxy
from repro.exceptions import (
    ArrayBoundsError, EvaluationError, TypeMismatchError,
    UnknownFunctionError,
)
from repro.rdf.term import BlankNode, Literal, URI, term_key
from repro.sparql import ast
from repro.engine import functions as fn
from repro.engine.bindings import Bindings
from repro.engine.udf import ClosureValue, ForeignFunction, UserFunction

import operator

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_COMPARISON = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


class Evaluator:
    """Evaluates expressions given an engine context.

    ``engine`` supplies EXISTS evaluation and user-function application;
    it may be None for standalone expression evaluation (no EXISTS/UDFs).
    ``graph`` is the active graph of the operator evaluating through
    this instance — what an EXISTS pattern is matched against (inside
    ``GRAPH <g> {...}`` that is ``<g>``, not the default graph).
    """

    def __init__(self, engine=None, graph=None):
        self.engine = engine
        self.graph = graph

    # -- entry points ---------------------------------------------------------

    def evaluate(self, expr, bindings):
        """Evaluate to a runtime value; raises EvaluationError on failure."""
        method = getattr(
            self, "_eval_" + type(expr).__name__, None
        )
        if method is None:
            raise EvaluationError("cannot evaluate %r" % (expr,))
        return method(expr, bindings)

    def ebv(self, expr, bindings):
        """Effective boolean value of an expression."""
        return fn.effective_boolean_value(self.evaluate(expr, bindings))

    def evaluate_or_none(self, expr, bindings):
        """BIND semantics: an error produces an unbound value."""
        try:
            return self.evaluate(expr, bindings)
        except EvaluationError:
            return None

    # -- node handlers -----------------------------------------------------------

    def _eval_Var(self, expr, bindings):
        value = bindings.get(expr.name)
        if value is None:
            raise EvaluationError("unbound variable ?%s" % expr.name)
        return fn.runtime(value)

    def _eval_TermExpr(self, expr, bindings):
        return fn.runtime(expr.term)

    def _eval_BinaryOp(self, expr, bindings):
        op = expr.op
        if op == "&&":
            # SPARQL three-valued logic: an error on one side may still
            # give a definite false
            left_error = right_error = None
            try:
                left = self.ebv(expr.left, bindings)
            except EvaluationError as error:
                left_error = error
                left = None
            try:
                right = self.ebv(expr.right, bindings)
            except EvaluationError as error:
                right_error = error
                right = None
            if left_error is None and right_error is None:
                return left and right
            if left is False or right is False:
                return False
            raise left_error or right_error
        if op == "||":
            left_error = right_error = None
            try:
                left = self.ebv(expr.left, bindings)
            except EvaluationError as error:
                left_error = error
                left = None
            try:
                right = self.ebv(expr.right, bindings)
            except EvaluationError as error:
                right_error = error
                right = None
            if left_error is None and right_error is None:
                return left or right
            if left is True or right is True:
                return True
            raise left_error or right_error

        left = self.evaluate(expr.left, bindings)
        right = self.evaluate(expr.right, bindings)
        if op in _ARITHMETIC:
            return self._arithmetic(op, left, right)
        if op in _COMPARISON:
            return self._compare(op, left, right)
        raise EvaluationError("unknown operator %r" % op)

    def _arithmetic(self, op, left, right):
        left = self._numeric_operand(left)
        right = self._numeric_operand(right)
        if isinstance(left, NumericArray) or isinstance(right, NumericArray):
            return array_ops.elementwise(_ARITHMETIC[op], left, right)
        try:
            return _ARITHMETIC[op](left, right)
        except ZeroDivisionError:
            raise EvaluationError("division by zero")
        except TypeError:
            raise TypeMismatchError(
                "cannot apply %s to %r and %r" % (op, left, right)
            )

    def _numeric_operand(self, value):
        if isinstance(value, ArrayProxy):
            return value.resolve()
        if isinstance(value, Literal):
            if value.is_numeric():
                return value.value
            raise TypeMismatchError(
                "non-numeric literal in arithmetic: %r" % (value,)
            )
        if isinstance(value, bool):
            raise TypeMismatchError("boolean in arithmetic")
        if isinstance(value, (int, float, NumericArray)):
            return value
        raise TypeMismatchError("non-numeric value %r in arithmetic"
                                % (value,))

    def _compare(self, op, left, right):
        # array equality (section 4.1.6): same shape and elements
        if isinstance(left, (NumericArray, ArrayProxy)) or isinstance(
            right, (NumericArray, ArrayProxy)
        ):
            if op not in ("=", "!="):
                raise TypeMismatchError("arrays only support = and !=")
            left_arr = left.resolve() if isinstance(left, ArrayProxy) \
                else left
            right_arr = right.resolve() if isinstance(right, ArrayProxy) \
                else right
            if not isinstance(left_arr, NumericArray) or not isinstance(
                right_arr, NumericArray
            ):
                return (op == "!=")
            equal = left_arr == right_arr
            return equal if op == "=" else not equal
        if isinstance(left, bool) or isinstance(right, bool):
            if not isinstance(left, bool) or not isinstance(right, bool):
                if op in ("=",):
                    return False
                if op == "!=":
                    return True
                raise TypeMismatchError("comparing boolean to non-boolean")
            return _COMPARISON[op](left, right)
        if isinstance(left, (int, float)) and isinstance(
            right, (int, float)
        ):
            return _COMPARISON[op](left, right)
        if isinstance(left, str) and isinstance(right, str):
            return _COMPARISON[op](left, right)
        if isinstance(left, (URI, BlankNode)) or isinstance(
            right, (URI, BlankNode)
        ):
            if op == "=":
                return left == right
            if op == "!=":
                return left != right
            raise TypeMismatchError("resources only support = and !=")
        if isinstance(left, Literal) or isinstance(right, Literal):
            left_term = fn.to_term(left)
            right_term = fn.to_term(right)
            if op == "=":
                return left_term == right_term
            if op == "!=":
                return left_term != right_term
            return _COMPARISON[op](
                term_key(left_term), term_key(right_term)
            )
        raise TypeMismatchError(
            "cannot compare %r and %r" % (left, right)
        )

    def _eval_UnaryOp(self, expr, bindings):
        if expr.op == "!":
            return not self.ebv(expr.operand, bindings)
        if expr.op == "-":
            value = self._numeric_operand(
                self.evaluate(expr.operand, bindings)
            )
            if isinstance(value, NumericArray):
                return array_ops.elementwise_unary(operator.neg, value)
            return -value
        raise EvaluationError("unknown unary operator %r" % expr.op)

    def _eval_FunctionCall(self, expr, bindings):
        name = expr.name
        if isinstance(name, str):
            return self._builtin(name, expr, bindings)
        # user-defined or foreign function by URI
        if self.engine is None:
            raise UnknownFunctionError("no function context for %s" % name)
        function = self.engine.functions.require(name)
        args = [self._argument(a, bindings) for a in expr.args]
        return self._apply_function(function, args, bindings)

    def _apply_function(self, function, args, bindings):
        if isinstance(function, ForeignFunction):
            try:
                return function(*args)
            except EvaluationError:
                raise
            except Exception as error:
                raise EvaluationError(
                    "foreign function %s failed: %s" % (function.name, error)
                )
        if isinstance(function, UserFunction):
            if len(args) != function.arity():
                raise EvaluationError(
                    "function %s expects %d arguments, got %d"
                    % (function.name, function.arity(), len(args))
                )
            if function.is_view:
                return self.engine.call_view(function, args)
            call_bindings = Bindings({
                param.name: fn.to_term(value) if not callable(value)
                else value
                for param, value in zip(function.params, args)
            })
            try:
                return self.evaluate(function.body, call_bindings)
            except RecursionError:
                raise EvaluationError(
                    "runaway recursion in function %s" % function.name
                )
        if callable(function):
            return function(*args)
        raise EvaluationError("%r is not callable" % (function,))

    def _argument(self, expr, bindings):
        """Evaluate a call argument; closures become callable values and
        function names in argument position become function references."""
        if isinstance(expr, ast.Closure):
            return ClosureValue(expr.params, expr.body, bindings, self)
        if isinstance(expr, ast.TermExpr) and isinstance(expr.term, URI):
            if self.engine is not None and expr.term in \
                    self.engine.functions:
                function = self.engine.functions.require(expr.term)
                evaluator = self

                def as_callable(*args, _function=function):
                    return evaluator._apply_function(
                        _function, list(args), bindings
                    )
                if isinstance(function, ForeignFunction):
                    as_callable.numpy_op = getattr(
                        function.fn, "numpy_op", None
                    )
                return as_callable
        return self.evaluate(expr, bindings)

    def _builtin(self, name, expr, bindings):
        # special forms first
        if name == "BOUND":
            arg = expr.args[0]
            if not isinstance(arg, ast.Var):
                raise EvaluationError("BOUND expects a variable")
            return bindings.get(arg.name) is not None
        if name == "IF":
            condition = self.ebv(expr.args[0], bindings)
            chosen = expr.args[1] if condition else expr.args[2]
            return self.evaluate(chosen, bindings)
        if name == "COALESCE":
            for arg in expr.args:
                try:
                    return self.evaluate(arg, bindings)
                except EvaluationError:
                    continue
            raise EvaluationError("COALESCE: all arguments errored")
        implementation = fn.BUILTINS.get(name)
        if implementation is None:
            raise UnknownFunctionError("unknown built-in %s" % name)
        args = [self._argument(a, bindings) for a in expr.args]
        try:
            return implementation(args)
        except EvaluationError:
            raise
        except (IndexError, ValueError, ArithmeticError) as error:
            raise EvaluationError("%s: %s" % (name, error))

    def _eval_ArraySubscript(self, expr, bindings):
        base = self.evaluate(expr.base, bindings)
        if not isinstance(base, (NumericArray, ArrayProxy)):
            raise TypeMismatchError(
                "subscript applied to non-array %r" % (base,)
            )
        subscripts = []
        for sub in expr.subscripts:
            if isinstance(sub, ast.RangeSubscript):
                subscripts.append(self._span(sub, bindings))
            else:
                index = int(fn.ensure_number(
                    self.evaluate(sub, bindings)
                ))
                subscripts.append(self._from_one_based(index))
        result = base.subscript(subscripts)
        if isinstance(result, NumericArray) and result.ndim == 0:
            return result.to_numpy().item()
        if isinstance(result, ArrayProxy) and result.ndim == 0:
            # a fully-subscripted proxy is a single element: resolve now
            return result.resolve()
        return result

    @staticmethod
    def _from_one_based(index):
        if index < 1:
            raise ArrayBoundsError(
                "array subscripts are 1-based, got %d" % index
            )
        return index - 1

    def _span(self, sub, bindings):
        """Convert a 1-based inclusive lo:stride:hi to an internal Span."""
        lo = None
        if sub.lo is not None:
            lo = self._from_one_based(int(fn.ensure_number(
                self.evaluate(sub.lo, bindings)
            )))
        hi = None
        if sub.hi is not None:
            hi = int(fn.ensure_number(self.evaluate(sub.hi, bindings)))
            if hi < 1:
                raise ArrayBoundsError("range upper bound below 1")
        stride = 1
        if sub.stride is not None:
            stride = int(fn.ensure_number(
                self.evaluate(sub.stride, bindings)
            ))
            if stride < 1:
                raise ArrayBoundsError("stride must be positive")
        return Span(lo, hi, stride)

    def _eval_Closure(self, expr, bindings):
        return ClosureValue(expr.params, expr.body, bindings, self)

    def _eval_FunctionRef(self, expr, bindings):
        if self.engine is None:
            raise UnknownFunctionError("no function context")
        return self.engine.functions.require(expr.name)

    def _eval_InExpr(self, expr, bindings):
        value = self.evaluate(expr.expr, bindings)
        found = False
        for choice in expr.choices:
            try:
                if self._compare("=", value,
                                 self.evaluate(choice, bindings)):
                    found = True
                    break
            except EvaluationError:
                continue
        return (not found) if expr.negated else found

    def _eval_ExistsExpr(self, expr, bindings):
        if self.engine is None:
            raise EvaluationError("EXISTS requires an engine context")
        exists = self.engine.exists(expr.pattern, bindings, self.graph)
        return (not exists) if expr.negated else exists

    def _eval_Aggregate(self, expr, bindings):
        raise EvaluationError(
            "aggregate %s outside of grouping context" % expr.name
        )
