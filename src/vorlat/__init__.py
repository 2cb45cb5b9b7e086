"""Lattice constellations with Voronoi shaping and low-cost encoding."""

from .codes import (
    BUILTIN_CHAINS,
    CodeChain,
    LinearCode,
    builtin_chain,
    load_chain,
    make_rep_spc_chain,
)
from .intmat import IntMatrix, hnf_lower_triangular
from .lattice import (
    Lattice,
    direct_sum,
    is_sublattice,
    load_lattice,
    quotient_order,
    standard_lattice,
)
from .quantize import fold_batch, make_quantizer
from .shaping import (
    BUILTIN_SPECS,
    VoronoiCodeSpec,
    builtin_spec,
    get_spec,
    load_spec,
)
from .simulate import (
    WerPoint,
    average_energy,
    complexity_bench,
    second_moment_mc,
    sigma_for,
    transmit,
    wer_gap_db,
    wer_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_CHAINS",
    "BUILTIN_SPECS",
    "CodeChain",
    "IntMatrix",
    "Lattice",
    "LinearCode",
    "VoronoiCodeSpec",
    "WerPoint",
    "average_energy",
    "builtin_chain",
    "builtin_spec",
    "complexity_bench",
    "direct_sum",
    "fold_batch",
    "get_spec",
    "hnf_lower_triangular",
    "is_sublattice",
    "load_chain",
    "load_lattice",
    "load_spec",
    "make_quantizer",
    "make_rep_spc_chain",
    "quotient_order",
    "second_moment_mc",
    "sigma_for",
    "standard_lattice",
    "transmit",
    "wer_gap_db",
    "wer_sweep",
    "__version__",
]
