"""Exact-arithmetic toolkit for cell decompositions of framed quiver
moduli, the subtree/multipartition bijection, motivic counting series,
the shuffle algebra product, and tautological basis verification.
"""

from .cells import (
    CellError,
    CriticalSet,
    NumericRep,
    Subtree,
    cell_dim,
    classify,
    critical_set,
    enumerate_trees,
    format_tree,
    in_cell,
    in_degeneracy_locus,
    make_rep,
    make_subtree,
    parse_rep_file,
    parse_tree,
    random_stable_rep,
    tree_key,
    tree_leq,
    udim,
)
from .charts import (
    chart_coordinates,
    make_chart,
    membership_minors,
    multiplicity_power,
    rep_from_chart,
    symbolic_vector,
)
from .coha import (
    BasisReport,
    CohaError,
    GradedSubspace,
    SymPoly,
    elementary,
    framing_idempotent,
    kernel_graded_piece,
    monomial_symmetric,
    shuffle_product,
    slice_basis,
    tautological_monomial,
    top_degree,
    unit,
    verify_basis,
)
from .partitions import (
    MultiPartition,
    cell_labels,
    enumerate_partitions,
    format_partition,
    make_partition,
    parse_partition,
    partition_cell_dim,
    partition_to_tree,
    satisfies_phi,
    tree_to_partition,
)
from .paths import (
    LEX,
    ROOT,
    SHORTLEX,
    WSHORTLEX,
    Path,
    PathOrder,
    format_path,
    parse_path,
)
from .quiver import (
    Arrow,
    FramedQuiver,
    Quiver,
    QuiverError,
    euler_form,
    parse_quiver_file,
    serialize_quiver_file,
)
from .series import (
    LaurentPoly,
    betti_numbers,
    gaussian_binomial,
    motivic_class,
    q_multinomial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
