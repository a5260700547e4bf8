"""Evaluation-tree semantics, normal forms, and axiom checking for
left-sequential propositional logics with full evaluation."""

from .evaltree import EvalTree, Leaf, Node, leaf, node, render, tree_from_json, tree_to_json
from .semantics import (
    CLFEL,
    CLFEL2,
    FFEL,
    FFELU,
    Logic,
    MFEL,
    MFELU,
    SFEL,
    clfe,
    clfe_u,
    equiv,
    evaluate,
    fe,
    fe_u,
    logic_by_name,
    memo,
    mfe,
    mfe_u,
    sfe,
)
from .syntax import Expr, ParseError, parse, print_expr
from .fnf import classify, FnfCategory, normalize_ffel, normalize_ffelu, u_sigma
from .invert import Decomposition, NoDecomposition, NotInImage, cd, dd, g, tsd
from .normalforms import (
    SigmaNormalForm,
    enumerate_sigma_nf,
    h,
    normalize_clfel2,
    normalize_clfelu,
    normalize_mfel,
    normalize_mfelu,
    permute_sigma_nf,
)
from .axioms import (
    AxiomSet,
    BUILTIN_SETS,
    Equation,
    Exhaustive,
    OWN_LOGIC,
    Random,
    check_set,
    check_validity,
    instantiate,
)
from .models import FiniteModel, check_equation_in_model, find_model, independence_report
from .scl import bridge_check, se, translate_t
from .tables import reset

__all__ = [name for name in dir() if not name.startswith("_")]
