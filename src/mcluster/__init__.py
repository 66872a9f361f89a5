"""m-cluster categories of representation-finite hereditary algebras.

The package models the bounded derived category of a Dynkin path algebra on
a finite shift window, builds the m-rigidity compatibility graph of the
orbit category, enumerates maximal m-rigid objects, localises at rigid
summands, and verifies the structural theorems exhaustively at small rank.
"""

from .arquiver import ARQuiver, ARVertex, knit_module_category
from .cluster import (
    CompatibilityGraph,
    MRigidObject,
    compatibility_graph,
    complements,
    enumerate_maximal_m_rigid,
    fundamental_domain,
    is_m_cluster_tilting,
    normalize_to_Dminus,  # for the layer benchmark only; see its docstring
    tilting_modules,
)
from .derived import DerivedModel, DVertex
from .endo import EndoAlgebraData, endo_dims, verify_factor_theorem
from .errors import (
    CliqueCapExceeded,
    CyclicQuiver,
    DisconnectedQuiver,
    InternalCheckError,
    MalformedInput,
    MClusterError,
    NotDynkin,
    QuiverError,
    WindowOverflow,
)
from .localise import (
    LocalisedObject,
    PerpendicularData,
    approximation_triangle,
    localise_object,
    perpendicular_algebra,
    project_to_D0,
)
from .meshcat import MeshCategory
from .quiver import (
    PRESET_NAMES,
    Quiver,
    dim_str,
    euler_form,
    make_quiver,
    parse_dim_str,
    parse_quiver,
    positive_roots,
    preset,
)
from .verify import VerificationReport, run_verify

__version__ = "0.1.0"
