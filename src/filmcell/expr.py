"""Restricted closed-form expressions over the slab coordinates.

Config files describe loads and heterogeneity profiles as strings like
``"0.5 + 0.25*sin(2*pi*x1)"`` or ``"1 + 2*step(x3)"``.  The grammar is a
whitelisted subset of Python expressions over the names x1, x2, x3:
arithmetic (+ - * / ** %), the functions sin, cos, tan, exp, log, sqrt,
abs, floor, sign, min, max, step (unit step, step(t) = 1 for t > 0) and
the constants pi and e.  Each function takes one argument, min and max
one or more.  Anything else is rejected at parse time, so config files
cannot execute arbitrary code.

Numeric literals are floats.  Compiled expressions evaluate vectorized
over numpy arrays; compiling evaluates once at the origin, so constant
arithmetic that fails (1/0, 10**400) or comes out complex ((-8)**(1/3))
is an ExpressionError.
"""

from __future__ import annotations

import ast

import numpy as np

__all__ = ["ExpressionError", "compile_expression", "compile_vector"]


class ExpressionError(ValueError):
    """Raised when an expression uses names or syntax outside the grammar."""


def _step(t):
    return np.where(np.asarray(t, dtype=float) > 0.0, 1.0, 0.0)


def _vmin(*args):
    out = args[0]
    for a in args[1:]:
        out = np.minimum(out, a)
    return out


def _vmax(*args):
    out = args[0]
    for a in args[1:]:
        out = np.maximum(out, a)
    return out


_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs, "floor": np.floor, "sign": np.sign,
    "step": _step, "min": _vmin, "max": _vmax,
}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_VARIABLES = ("x1", "x2", "x3")

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def _validate(node):
    if isinstance(node, ast.Expression):
        _validate(node.body)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.left)
        _validate(node.right)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.operand)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only the whitelisted functions may be called")
        if node.keywords:
            raise ExpressionError("keyword arguments not allowed")
        if len(node.args) != 1 and not (node.args and node.func.id in ("min", "max")):
            raise ExpressionError(f"wrong number of arguments to {node.func.id}()")
        for a in node.args:
            _validate(a)
    elif isinstance(node, ast.Name):
        if node.id not in _VARIABLES and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError("only numeric literals allowed")
        node.value = float(node.value)
    else:
        raise ExpressionError(f"syntax {type(node).__name__} not allowed")


def compile_expression(text: str):
    """Compile an expression string to ``fn(x1, x2, x3) -> array``."""
    try:
        tree = ast.parse(str(text), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression: {exc}") from exc
    namespace = {**_FUNCTIONS, **_CONSTANTS, "__builtins__": {}}
    try:
        _validate(tree)         # also makes every literal a float
        code = compile(tree, "<filmcell-expression>", "eval")
        with np.errstate(all="ignore"):
            probe = eval(code, namespace, dict.fromkeys(_VARIABLES, np.zeros(())))
    except ArithmeticError as exc:
        raise ExpressionError(f"cannot evaluate {text!r}: {exc}") from exc
    if np.iscomplexobj(probe):
        raise ExpressionError(f"cannot evaluate {text!r}: complex value {probe}")

    def fn(x1, x2, x3):
        local = {"x1": np.asarray(x1, dtype=float),
                 "x2": np.asarray(x2, dtype=float),
                 "x3": np.asarray(x3, dtype=float)}
        out = eval(code, namespace, local)
        return np.asarray(out, dtype=float)

    return fn


def compile_vector(components):
    """Compile three component expressions to ``fn(x1, x2, x3) -> (..., 3)``."""
    comps = list(components)
    if len(comps) != 3:
        raise ExpressionError("vector expressions need exactly 3 components")
    fns = [compile_expression(c) for c in comps]

    def fn(x1, x2, x3):
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3))
        out = np.empty(shape + (3,), dtype=float)
        for i, f in enumerate(fns):
            out[..., i] = np.broadcast_to(f(x1, x2, x3), shape)
        return out

    return fn
