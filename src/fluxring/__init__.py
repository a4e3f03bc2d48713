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
)
from .errors import FluxRingError
from .model import (
    INFINITY,
    ModelSpec,
    load_model,
    make_spec,
    save_model,
    with_flux,
)
from .operators import (
    SparseHermitian,
    build_hamiltonian,
    build_one_particle,
    build_total_spin,
    extend_ring,
    flux_family,
    negative_envelope,
    solve_sign_gauge,
)
from .spectra import (
    GroundInfo,
    full_spectrum,
    ground,
    lowest_sum,
)
from .analysis import (
    VerificationReport,
    even_optimal_flux,
    ferromagnetic_state,
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
    "FluxRingError", "GroundInfo", "INFINITY", "ModelSpec", "NecklaceBlock",
    "SectorBasis", "SparseHermitian", "VerificationReport",
    "build_hamiltonian", "build_one_particle", "build_total_spin",
    "decompose_blocks", "enumerate_sector", "even_optimal_flux",
    "extend_ring", "ferromagnetic_state", "flux_family", "full_spectrum",
    "gen_fixture", "ground", "load_model", "lowest_sum", "make_spec",
    "necklace_period", "negative_envelope", "refine_argmin", "save_model",
    "scan_flux", "solve_sign_gauge", "spiral_state", "thermal_scan",
    "verify_block_lemma", "verify_doubling", "verify_even",
    "verify_odd", "verify_relation", "verify_singlet", "with_flux",
]
