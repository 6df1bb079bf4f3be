"""Combinatorial search, verification, and embedding of hex packings.

Packings of topological cubes are grown one hex at a time, deduplicated
by a canonical code of their boundary surface, and finally embedded in
space with prescribed boundary coordinates.  See the module docstrings
for the individual layers: hexmodel (complexes and conformity), surface
(patterns and canonical codes), moves (glue configurations and
placements), search (the layered ledger), geometry (embedding), and
formats/cli (I/O).
"""

from .errors import (
    CheckpointCorrupt,
    CheckpointError,
    DegenerateEdge,
    DegenerateHex,
    Disconnected,
    DuplicateHex,
    HexpackError,
    InconsistentOrientation,
    IndexOutOfRange,
    InvalidPlacement,
    MissingCoordinates,
    NonConformingFace,
    NonConformingInput,
    NonManifoldBoundary,
    NonManifoldEdge,
    ParseError,
    PinchedVertex,
    SharedFaceCountExceeded,
    ValidationError,
    VersionMismatch,
    Violation,
)
from .fixtures import (
    FIXTURE_NAMES,
    load_fixture,
    parity_even18,
    parity_odd17,
    pyramid36,
)
from .formats import (
    export_obj_surface,
    export_vtk,
    parse_coords,
    parse_mesh,
    parse_pattern,
    parse_vtk,
    parse_witness,
    write_coords,
    write_mesh,
    write_pattern,
    write_witness,
)
from .geometry import (
    CORNER_NEIGHBORS,
    OptimizeResult,
    QualityReport,
    corner_scaled_jacobians,
    init_interior,
    optimize_embedding,
    pyramid_boundary_coords,
    quality_report,
)
from .hexmodel import (
    HEX_EDGES,
    HEX_FACES,
    OPPOSITE_FACE,
    REF_CORNERS,
    ConformityReport,
    HexComplex,
    build_complex,
    check_conformity,
    classify_vertices,
    extract_boundary,
    face_key,
    hex_parity,
    oriented_key,
    subdivide_hex,
    subdivide_tet,
)
from .moves import (
    GlueConfig,
    MoveResult,
    Placement,
    apply_move,
    config_by_id,
    config_components,
    config_for_subset,
    enumerate_moves,
    glue_configs,
    initial_packing,
)
from .search import (
    GrowOrderResult,
    PatternRecord,
    SearchLedger,
    SearchOptions,
    SearchResult,
    SearchStats,
    TemplateReport,
    build_ledger,
    find_grow_order,
    find_templates,
    load_checkpoint,
    replay_witness,
    save_checkpoint,
    search_min_packing,
    verify_template,
)
from .surface import (
    SurfacePattern,
    build_pattern,
    canonical_code,
    code_quad_count,
    cube_pattern,
    euler_characteristic,
    isomorphic,
    pyramid16_pattern,
    relabel,
)

__version__ = "0.1.0"
