"""Lexer, parser, validator, printer, and repairer for the EMR DSL.

``repair`` and ``validate`` name submodules here: import those functions
from ``emrkit.dsl.repair`` and ``emrkit.dsl.validate``.
"""

from .ast import (
    BoolChain,
    BoolLit,
    Call,
    Continue,
    ExprStmt,
    ForEach,
    If,
    IntLit,
    MethodCall,
    Name,
    Not,
    StringLit,
    VarDecl,
)
from .errors import DslError, IllegalCharacter, ParseError
from .parser import parse_emr
from .printer import canonical_units, pretty_print
from .repair import WLC_AMP
from .tokens import reconstruct, tokenize
from .validate import has_errors, stub_names

__all__ = [
    "BoolChain",
    "BoolLit",
    "Call",
    "Continue",
    "DslError",
    "ExprStmt",
    "ForEach",
    "If",
    "IllegalCharacter",
    "IntLit",
    "MethodCall",
    "Name",
    "Not",
    "ParseError",
    "StringLit",
    "VarDecl",
    "WLC_AMP",
    "canonical_units",
    "has_errors",
    "parse_emr",
    "pretty_print",
    "reconstruct",
    "stub_names",
    "tokenize",
]
