"""Gate synthesis: generator-word search, multi-control gadgets, two-level
factorization, and the compile pipeline."""

from .words import GateWord, projective_distance, word_search
from .gadgets import isometric_sqrt, lambda_k
from .twolevel import TwoLevelFactor, lower, two_level_factorize
from .compiler import CompileResult, CompileStage, compile, format_report

__all__ = [
    "CompileResult",
    "CompileStage",
    "GateWord",
    "TwoLevelFactor",
    "compile",
    "format_report",
    "isometric_sqrt",
    "lambda_k",
    "lower",
    "projective_distance",
    "two_level_factorize",
    "word_search",
]
