"""Statevector simulator and estimator toolkit for flat-band dimerized XX
chain quenches: exact circuits, randomized-measurement Renyi entropy, twist
order parameter and Berry phase postprocessing, noise injection, and global
depolarizing error mitigation, validated against free-fermion closed forms.
"""

__version__ = "0.1.0"

from .circuits import (
    Circuit,
    circuit_to_text,
    evolution_circuit,
    layer_count,
    prepare_neel,
    prepare_singlet_product,
    quench_circuit,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .experiment import run_randomized_measurements
from .noise import (
    apply_depolarizing,
    effective_p_tot,
    estimate_p_tot_from_full_purity,
    mitigate_purity,
    shift_align,
)
from .observables import (
    BerryPoint,
    TwistResult,
    berry_phase,
    exact_twist,
    gauge_reference,
    particle_twist_amplitude,
    postselect_half_filling,
    twist_order_parameter,
)
from .oracle import (
    closed_form_entropy,
    correlation_submatrix,
    orbitals,
    renyi_from_correlation,
)
from .randmeas import (
    PurityEstimate,
    ShotTable,
    child_generator,
    estimate_purity,
    renyi2,
    sample_haar_unitary,
)
from .state import (
    CapacityError,
    Gate1Q,
    Gate2Q,
    QuantumState,
    apply_gate,
    new_basis_state,
    probabilities,
    purity,
    reduced_density_matrix,
    sample_shots,
)
