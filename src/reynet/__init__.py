"""Permutation equivariant and invariant networks via Reynolds designs."""

from .groups import (
    Design,
    Permutation,
    compose,
    cyclic_group,
    design_inverses,
    enumerate_design,
    enumerate_symmetric,
    fixes_prefix,
    identity,
    invert,
    permute_indices,
    prefix_stabilizer,
)
from .tableaux import (
    BasisTableau,
    ExtendedTableau,
    YoungDiagram,
    all_basis_tableaux,
    base_indices,
    enum_basis_tableaux,
    enum_young_diagrams,
    indices_to_tableau,
    normalizing_permutation,
    tableau_to_indices,
)
from .tensors import (
    DenseTensor,
    OrbitTensor,
    basis_vector,
    orbit_sum,
    permute_tensor,
)
from .reynolds import (
    GeneratorSet,
    Polynomial,
    VectorFunction,
    decomposition_check,
    generator_means,
    monomial,
    power_sum_generators,
    reynolds_equivariant,
    reynolds_equivariant_design,
    reynolds_invariant,
    reynolds_invariant_design,
)
from .nn import MLPParams, adam_step, init_adam, init_params, mlp_forward
from .models import (
    EquivariantReyNet,
    FlatNet,
    InvariantReyNet,
    ReducedSpec,
    build_equivariant,
    build_flat,
    build_invariant,
    default_reduced_spec,
    equivariant_forward,
    flat_forward,
    invariant_forward,
    transfer_invariant,
    transfer_n,
)
from .data import TASKS, Dataset, TaskSpec, apply_task, generate, load_dataset, save_dataset
from .checkpoint import ModelBundle, load_checkpoint, save_checkpoint
from .train import RunConfig, evaluate_mse, run_config, train_seed
from .verify import SuiteResult, run_suite, run_suites
from .rng import CounterRng

__version__ = "0.1.0"
