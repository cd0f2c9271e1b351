"""Extremal nonhamiltonian graphs: constructions, exact counts, exhaustive checks.

The library is organized around a small immutable bitmask graph type:

* :mod:`nonham.graphs` -- the graph value type and graph6 serialization,
* :mod:`nonham.formulas` -- exact integer evaluation of the bound functions,
* :mod:`nonham.families` -- builders for the extremal graph families,
* :mod:`nonham.hamilton` -- hamiltonicity search, saturation, degree certificates,
* :mod:`nonham.counting` -- labeled embedding / clique / automorphism counts,
* :mod:`nonham.classify` -- spanning-subgraph containment in template families,
* :mod:`nonham.enumeration` -- isomorph-free graph streams at small order,
* :mod:`nonham.verify` -- exhaustive theorem sweeps with JSON reports,
* :mod:`nonham.cli` -- the ``nonham`` command-line tool.
"""

from nonham.graphs import (
    Graph,
    add_edge,
    build_from_edges,
    complete_graph,
    degree,
    graph6_decode,
    graph6_encode,
    min_degree,
)
from nonham.formulas import (
    d0,
    e_bound,
    falling_factorial,
    gen_binom,
    h,
    h_k,
    n0_threshold,
    star_count_formula,
)
from nonham.families import (
    Family,
    build_F3,
    build_Gprime2,
    build_GprimeD,
    build_H,
    build_Hprime,
    build_Kprime,
)
from nonham.hamilton import (
    PathPartition,
    PosaCertificate,
    find_hamiltonian_cycle,
    hamiltonian_path_between,
    is_hamiltonian,
    is_saturated,
    ore_check,
    path_partition,
    posa_certificate,
    saturate,
)
from nonham.counting import (
    automorphism_count,
    count_cliques,
    count_labeled_embeddings,
)
from nonham.classify import (
    ClassificationResult,
    classify,
    is_isomorphic,
    spanning_subgraph_of,
)
from nonham.enumeration import (
    apply_filters,
    canonical_form,
    enumerate_nonisomorphic,
    stream_graph6,
)
from nonham.verify import (
    VerificationReport,
    verify_clique_bound,
    verify_edge_bound,
    verify_prior_stability,
    verify_saturation_lemmas,
    verify_stability,
    verify_star_claim,
)

__all__ = [name for name in dir() if not name.startswith("_")]
