"""Gate synthesis: SU(1,1) tooling, generator-word search, multi-control
gadgets, two-level factorization, and the compile pipeline."""

from .su11 import (
    AxisVector,
    approx_power,
    axis_decompose,
    boost_generator,
    circle_distance,
    conjugation_axis_basis,
    controlled_rotation_product,
    decompose_su11,
    rotation_angle_of_word,
    su11_classify,
    trotter_word,
)
from .words import GateWord, projective_distance, word_matrix, word_search
from .gadgets import isometric_sqrt, lambda_k
from .twolevel import (
    TwoLevelFactor,
    embed,
    two_level_factorize,
    two_level_to_circuit,
)
from .compiler import CompileResult, CompileStage, compile, format_report

__all__ = [
    "AxisVector",
    "CompileResult",
    "CompileStage",
    "GateWord",
    "TwoLevelFactor",
    "approx_power",
    "axis_decompose",
    "boost_generator",
    "circle_distance",
    "compile",
    "conjugation_axis_basis",
    "controlled_rotation_product",
    "decompose_su11",
    "embed",
    "format_report",
    "isometric_sqrt",
    "lambda_k",
    "projective_distance",
    "rotation_angle_of_word",
    "su11_classify",
    "trotter_word",
    "two_level_factorize",
    "two_level_to_circuit",
    "word_matrix",
    "word_search",
]
