"""The public names of the package: ``masslin.__all__`` is pinned, and
every name in it resolves."""

import masslin

PUBLIC = [
    "BlowdownReport",
    "BlowupPlan",
    "Bundle121Spec",
    "ClassificationResult",
    "D2PolygonBundleSpec",
    "EquivalenceClasses",
    "FullMassLinearReport",
    "FunctionalSpace",
    "HPolytope",
    "InessentialWitness",
    "MassLinearReport",
    "PolytopeError",
    "RecognitionCertificate",
    "StructuralInconsistency",
    "TerminalRecognition",
    "TypeRecognition",
    "YkBundleSpec",
    "blowdown",
    "blowup",
    "bundle_121",
    "bundle_D2_polygon",
    "bundle_Yk",
    "center_of_mass",
    "certificate_holds",
    "classify4d",
    "double_expansion",
    "equivalence_classes",
    "essential_blowup_planner",
    "expansion",
    "fully_mass_linear_test",
    "generating_vector",
    "inessential_space",
    "integrate_monomial",
    "is_inessential",
    "mass_linear_test",
    "minimal_family_a3",
    "minimal_family_b",
    "ml_space",
    "ml_space_121",
    "ml_space_D2_polygon",
    "ml_space_Yk",
    "product",
    "recognize_bundle_over_segment",
    "recognize_double_expansion",
    "recognize_expansion",
    "recognize_type",
    "reconstruct",
    "replay_trace",
    "restrict_to_face",
    "simplex",
    "skeleton_barycenter",
    "trapezoid",
    "volume",
    "volume_poly",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 54
    assert sorted(masslin.__all__) == PUBLIC
    assert len(set(masslin.__all__)) == len(masslin.__all__)


def test_every_public_name_resolves():
    namespace = {}
    exec("from masslin import *", namespace)
    for name in PUBLIC:
        assert getattr(masslin, name) is namespace[name]
