"""moluq: uncertainty quantification for computed molecular properties.

Samples structure ensembles from B-value and torsion-angle uncertainty,
evaluates geometric and energetic quantities of interest, and produces
empirical certificate tables, closed-form concentration bounds,
probabilistic binding-site maps, and visualization data files.
"""

__version__ = "0.1.0"

from moluq.molio import (
    ParamTable,
    PdbFormatError,
    PdbParseError,
    Structure,
    assign_params,
    parse_pdb,
    parse_pdb_models,
    write_pdb,
)
from moluq.sampling import (
    LowDiscrepancySequence,
    sigma_from_b,
    star_discrepancy_estimate,
)
from moluq.conformers import (
    Conformer,
    Ensemble,
    TorsionGraph,
    apply_torsions,
    atom_motion_modes,
    clash_filter,
    perturb_cartesian,
    rmsd,
)
from moluq.qoi import (
    AtomSet,
    CoulombModel,
    QOIConfig,
    QOIKind,
    born_radii,
    coulomb_energy,
    delta_qoi,
    evaluate_qoi,
    gb_polarization,
    lj_energy,
    sasa,
    volume,
)
from moluq.certificates import (
    CertificateTable,
    EmpiricalDistribution,
    SaturationReport,
    chernoff_table,
    expected_hypercube_distance,
    saturation,
    zscore,
)
from moluq.bounds import (
    AzumaSpec,
    BoxDomain,
    KernelSpec,
    azuma_tail,
    d1_bound,
    d2_bound,
    d3_bound,
    estimate_conditional_c,
    mcdiarmid_tail,
    pairwise_sum_tail,
)
from moluq.bindsite import (
    BindingSiteMap,
    ContactModel,
    Pose,
    binding_score,
    binding_site_prob,
    binding_site_prob_multi,
    contact,
    inhibit_score,
)
from moluq.vizgrid import (
    ScalarGrid,
    colormap_export,
    occupancy_map,
    read_grid,
    write_grid,
)
