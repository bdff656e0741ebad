"""Boolean constraint languages: co-clone identification, weak bases,
dichotomy classifiers, gadget reductions, and exhaustive oracles."""

from .relations import (
    BooleanOperation,
    Classification,
    ConstraintLanguage,
    Relation,
    arithmetical_operation,
    classify_max_ones,
    classify_sat,
    preserves,
)
from .postlattice import (
    CloneId,
    CoCloneId,
    clone_base,
    co_clone_leq,
    co_clone_of,
    parse_coclone_name,
)
from .weakbases import WeakBaseEntry, weak_base, weak_base_entry
from .definitions import (
    Formula,
    WppGadget,
    eval_formula,
    eval_wpp,
    search_definition,
    verify_constant_extension,
    verify_qpp_definition,
)
from .instances import Constraint, Instance, Resolver, Threshold, default_resolver
from .oracle import SolveResult, decide, solve
from .valued import (
    CostFunction,
    NeqExpression,
    classify_vcsp,
    express_neq,
    f_neq,
    verify_neq_expression,
)
from .reductions import apply, certify, registry_names

__version__ = "0.1.0"
