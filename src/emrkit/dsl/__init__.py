"""Lexer, parser, validator, printer, and repairer for the EMR DSL.

``repair`` and ``validate`` name submodules here: import those functions
from ``emrkit.dsl.repair`` and ``emrkit.dsl.validate``.
"""

from .ast import (
    BoolChain,
    BoolLit,
    Call,
    CONSTRUCTS,
    Continue,
    EmrAst,
    Expr,
    ExprStmt,
    ForEach,
    If,
    IntLit,
    MethodCall,
    Name,
    Not,
    Stmt,
    StringLit,
    VarDecl,
    structurally_equal,
)
from .errors import DslError, IllegalCharacter, ParseError
from .parser import parse_emr
from .printer import Unit, canonical_units, format_expr, pretty_print
from .repair import WLC_AMP, RepairEntry, RepairLog
from .tokens import Token, reconstruct, tokenize
from .validate import Diagnostic, has_errors, stub_names

__all__ = [
    "BoolChain",
    "BoolLit",
    "Call",
    "CONSTRUCTS",
    "Continue",
    "Diagnostic",
    "DslError",
    "EmrAst",
    "Expr",
    "ExprStmt",
    "ForEach",
    "If",
    "IllegalCharacter",
    "IntLit",
    "MethodCall",
    "Name",
    "Not",
    "ParseError",
    "RepairEntry",
    "RepairLog",
    "Stmt",
    "StringLit",
    "Token",
    "Unit",
    "VarDecl",
    "WLC_AMP",
    "canonical_units",
    "format_expr",
    "has_errors",
    "parse_emr",
    "pretty_print",
    "reconstruct",
    "structurally_equal",
    "stub_names",
    "tokenize",
]
