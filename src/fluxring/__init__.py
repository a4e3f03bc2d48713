"""Exact diagonalization of Hubbard rings threaded by a magnetic flux.

Core objects: ModelSpec (ring, hoppings with phases, potentials,
interaction), SectorBasis (occupation bases per (N, Sz) sector, with or
without the hard-core constraint), SparseHermitian operators, and a set of
verifiers that mechanically check the flux-optimality, spin and block
structure claims this package exists to exercise.
"""

from .basis import (
    NecklaceBlock,
    SectorBasis,
    decompose_blocks,
    enumerate_sector,
    necklace_period,
    spin_word,
)
from .errors import FluxRingError
from .model import (
    INFINITY,
    GaugeAssignment,
    ModelSpec,
    canonical_gauge,
    load_model,
    make_spec,
    regauge,
    save_model,
    validate,
    with_flux,
)
from .operators import (
    DiagonalGauge,
    SparseHermitian,
    build_hamiltonian,
    build_one_particle,
    build_total_spin,
    dump_coo,
    extend_ring,
    flux_family,
    hole_particle_down,
    negative_envelope,
    solve_sign_gauge,
)
from .spectra import (
    FluxCurve,
    GroundInfo,
    canonical_partition,
    full_spectrum,
    ground,
    log_canonical_partition,
    lowest_sum,
)
from .analysis import (
    VerificationReport,
    detect_period,
    even_optimal_flux,
    ferromagnetic_state,
    finite_coupling_overlap,
    ground_manifold_spins,
    refine_argmin,
    scan_flux,
    spiral_state,
    thermal_scan,
    verify_block_lemma,
    verify_doubling,
    verify_even,
    verify_odd,
    verify_relation,
    verify_singlet,
)
from .fixtures import gen_fixture

__version__ = "0.1.0"

__all__ = [
    "DiagonalGauge", "FluxCurve", "FluxRingError", "GaugeAssignment",
    "GroundInfo", "INFINITY", "ModelSpec", "NecklaceBlock", "SectorBasis",
    "SparseHermitian", "VerificationReport", "build_hamiltonian",
    "build_one_particle", "build_total_spin", "canonical_gauge",
    "canonical_partition", "decompose_blocks", "detect_period", "dump_coo",
    "enumerate_sector", "even_optimal_flux", "extend_ring",
    "ferromagnetic_state", "finite_coupling_overlap", "flux_family",
    "full_spectrum", "gen_fixture", "ground", "ground_manifold_spins",
    "hole_particle_down", "load_model", "log_canonical_partition",
    "lowest_sum", "make_spec", "necklace_period", "negative_envelope",
    "refine_argmin", "regauge", "save_model",
    "scan_flux", "solve_sign_gauge", "spin_word", "spiral_state",
    "thermal_scan", "validate", "verify_block_lemma", "verify_doubling",
    "verify_even", "verify_odd", "verify_relation", "verify_singlet",
    "with_flux",
]
