"""Exact multiset and distribution calculus.

Multisets with natural multiplicities, finite discrete distributions with
exact rational weights, the classical draw channels between them, a
distributive law turning multisets of distributions into distributions
over multisets, probabilistic zipping, and conditioning.  Every claimed
equation is decidable and checked bit-exactly by the law suite.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .combinatorics import multichoose
from .elements import Elem, Pair, Space, elem_key
from .errors import DomainError, MulprobError, ParseError, ResourceLimitError
from .multiset import Multiset, accumulate, enumerate_arrangements, enumerate_multisets
from .dist import (
    Channel,
    Dist,
    Predicate,
    big_tensor,
    bind,
    compose,
    ctensor,
    dtensor,
    flatten,
    flrn,
    iid,
    pred_extend,
    push,
    unit,
    update,
    validity,
)
from .channels import (
    arrange,
    draw_delete,
    hypergeometric,
    multinomial,
    mzip,
    ppr,
    zip_tuples,
)
from .pml import lifted_map, monoid_sum, pml
from .ket import (
    format_value,
    parse_channel,
    parse_dist,
    parse_element,
    parse_multiset,
    parse_predicate,
    parse_value,
)
from .laws import LawContext, LawReport, catalogue, render_reports, run_laws

# Every public name above; the submodules the imports bind are not exports.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
