"""Lexer, parser, validator, printer, classifier, and repairer for the EMR DSL.

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
from .classify import StatementClass, classify_statements, statement_classes_by_line
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
    "StatementClass",
    "Stmt",
    "StringLit",
    "Token",
    "Unit",
    "VarDecl",
    "WLC_AMP",
    "canonical_units",
    "classify_statements",
    "format_expr",
    "has_errors",
    "parse_emr",
    "pretty_print",
    "reconstruct",
    "statement_classes_by_line",
    "structurally_equal",
    "stub_names",
    "tokenize",
]
