import dataclasses

import pytest

import quditgeom
from quditgeom import basis, curves, errors, linalg, models, representations, thermal

# the package's public names; each module's own list supplies all but the
# first four, which come from modules without a star export
PUBLIC_NAMES = {
    "__version__", "DimensionError", "PositivityError", "real_roots",
    "GeneratorSet", "SimplexFrame", "build_generators", "simplex_frame", "bloch_bound",
    "DegeneracyPattern", "SimplexPoint", "PositivityResult", "check_probability_vector",
    "diagonal_coefficients", "transformation_matrices", "p_to_lambda", "lambda_to_p",
    "invariants", "t_vertices", "polar_to_p", "positivity_check", "orbit_classification",
    "Spectrum", "ThermalState", "ThermalTrajectory", "gibbs_state", "endpoint_state",
    "trajectory", "default_beta_grid",
    "AngularMomentum", "LMGParams", "PhaseRegion", "PhaseGrid",
    "angular_momentum", "linear_spectrum", "direction_hamiltonian",
    "label_ordered_occupations", "lmg_hamiltonian", "lmg_spectrum", "separatrix",
    "classify_region", "phase_grid",
    "ParamCurve", "SurfaceMesh", "simplex_edges", "simplex_medians", "constant_t2_locus",
    "qutrit_t3_radius", "constant_t3_locus_qutrit", "constant_invariant_surface_ququart",
    "t_space_boundary_qutrit", "lambda_segment_images", "permutation_images",
}
EXPORTING = (basis, curves, linalg, models, representations, thermal)


def test_package_names_are_pinned():
    assert len(PUBLIC_NAMES) == 53
    assert len(quditgeom.__all__) == len(set(quditgeom.__all__))
    assert set(quditgeom.__all__) == PUBLIC_NAMES
    assert not hasattr(quditgeom, "real_roots_batch")


def test_each_package_name_is_the_object_of_its_defining_module():
    home = {name: module for module in EXPORTING for name in module.__all__}
    home.update(DimensionError=errors, PositivityError=errors, real_roots=linalg)
    assert set(home) | {"__version__"} >= PUBLIC_NAMES
    for name in PUBLIC_NAMES - {"__version__"}:
        obj = getattr(quditgeom, name)
        assert obj is getattr(home[name], name), name
        assert obj.__module__ == home[name].__name__, name


def test_each_module_lists_exactly_its_public_functions_and_classes():
    for module in EXPORTING:
        defined = {
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and callable(obj)  # functions (cached ones too) and classes
            and obj.__module__ == module.__name__
        }
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        assert set(module.__all__) == defined, module.__name__


# records holding arrays: equality and hashing fall back to identity
RECORDS = {
    "GeneratorSet": lambda: quditgeom.build_generators(2),
    "SimplexFrame": lambda: quditgeom.simplex_frame(3),
    "Spectrum": lambda: quditgeom.Spectrum([0.0, 1.0]),
    "ThermalState": lambda: quditgeom.gibbs_state(quditgeom.Spectrum([0.0, 1.0]), 1.0),
    "ThermalTrajectory": lambda: quditgeom.trajectory(quditgeom.Spectrum([0.0, 1.0]), [0.0, 1.0]),
    "AngularMomentum": lambda: quditgeom.angular_momentum(1),
    "PhaseGrid": lambda: quditgeom.phase_grid(1, [0.0], [0.0], 1.0),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_records_holding_arrays_compare_by_identity(make):
    record = make()
    copy = dataclasses.replace(record)
    assert record == record
    assert not record == copy
    assert hash(record) == hash(record)
