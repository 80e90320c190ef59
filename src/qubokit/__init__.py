"""qubokit: QUBO/Ising/HUBO toolkit with planted generators, physics-inspired
and exact solvers, and a benchmark harness."""

from .bench import GapRecord, SuiteSpec, export_records, load_records, optimality_gap, run_suite, spectrum
from .errors import (
    GenerationError,
    QubokitError,
    ReferenceUndefinedError,
    SizeCapError,
    UnsupportedOrderError,
    ValidationError,
)
from .generators import (
    PlantedInstance,
    apply_gauge,
    gauge_randomize,
    gen_3r3x,
    gen_chain3,
    gen_mw3s,
    gen_random,
    gen_tile,
    gen_wishart,
    rng_stream,
)
from .instance_io import (
    model_from_dict,
    model_to_dict,
    read_certificate,
    read_instance,
    write_certificate,
    write_instance,
)
from .model import (
    HuboModel,
    IsingModel,
    QuboModel,
    ReductionMap,
    as_bits,
    as_spins,
    bits_to_spins,
    sign_pm,
    spins_to_bits,
)
from .solvers import (
    BBParams,
    BBResult,
    PaParams,
    Sample,
    SampleSet,
    SaParams,
    SbmParams,
    bound_base,
    bound_spd,
    eig_extreme,
    solve_bb,
    solve_brute_force,
    solve_pa,
    solve_sa,
    solve_sbm,
)
from .transforms import (
    hubo_to_spin_domain,
    ising_to_qubo,
    qubo_to_ising,
    reduce_cubic,
)

__version__ = "0.1.0"
