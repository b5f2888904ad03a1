import ast
import types
from pathlib import Path

import numpy as np
import pytest

import rholab
import rholab.cli


def test_all_is_the_public_namespace():
    names = rholab.__all__
    assert "__version__" in names
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(rholab, name), types.ModuleType), name
    namespace = {}
    exec("from rholab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)


def test_cli_uses_only_public_names_of_channels():
    # The CLI runs a trajectory through the public chunk stream, like any caller.
    tree = ast.parse(Path(rholab.cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "channels"), (0, "rholab.channels"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


_STATE = rholab.DensityOperator(np.eye(2) / 2.0)
_KET = rholab.singlet().amplitudes
_AXES = (rholab.Z_AXIS, rholab.X_AXIS)  # the fields of a DetectorPair, as a tuple

# Each entry point that takes a value object, called with something else.
WRONG_TYPE_CALLS = {
    "eigenmatrix_decompose": (lambda: rholab.eigenmatrix_decompose(np.eye(4)), "a Superoperator, got ndarray"),
    "superop_from_kraus": (lambda: rholab.superop_from_kraus([np.eye(2)]), "a KrausChannel, got list"),
    "kraus_from_decomposition": (lambda: rholab.kraus_from_decomposition(np.eye(2)),
                                 "an EigenmatrixDecomposition, got ndarray"),
    "lindblad_apply": (lambda: rholab.lindblad_apply(np.eye(2), _STATE), "a LindbladGenerator, got ndarray"),
    "generator_matrix": (lambda: rholab.generator_matrix(None), "a LindbladGenerator, got NoneType"),
    "lindblad_spectrum": (lambda: rholab.lindblad_spectrum(None), "a LindbladGenerator, got NoneType"),
    "evolve_lindblad": (lambda: rholab.evolve_lindblad(None, _STATE, 1, 0.1), "a LindbladGenerator, got NoneType"),
    "pair_operator": (lambda: rholab.pair_operator(_AXES), "a DetectorPair, got tuple"),
    "singlet_correlation": (lambda: rholab.singlet_correlation(None), "a DetectorPair, got NoneType"),
    "singlet_variance": (lambda: rholab.singlet_variance(rholab.Z_AXIS), "a DetectorPair, got UnitVector3"),
    "joint_outcome_probabilities": (lambda: rholab.joint_outcome_probabilities(_AXES), "a DetectorPair, got tuple"),
    "sample_events": (lambda: rholab.sample_events(_AXES, 10, 42), "a DetectorPair, got tuple"),
    "sigma_n": (lambda: rholab.sigma_n(np.array([0.0, 0.0, 1.0])), "a UnitVector3, got ndarray"),
    "sigma_n_eigenkets": (lambda: rholab.sigma_n_eigenkets((0.0, 0.0, 1.0)), "a UnitVector3, got tuple"),
    "schmidt": (lambda: rholab.schmidt(_KET), "a BipartiteKet, got ndarray"),
    "overlap_residue": (lambda: rholab.overlap_residue(1, _KET, 0, rholab.singlet()), "a BipartiteKet, got ndarray"),
    "partial_trace_a": (lambda: rholab.partial_trace_a(np.eye(4), (2, 2)), "a BipartiteSpace, got tuple"),
    "partial_trace_b": (lambda: rholab.partial_trace_b(np.eye(4), (2, 2)), "a BipartiteSpace, got tuple"),
    "gram_factor": (lambda: rholab.gram_factor([(1.0, _KET)], np.eye(4)), "a ProperMixture, got list"),
    "mixture_to_density": (lambda: rholab.mixture_to_density(_STATE.matrix), "a ProperMixture, got ndarray"),
    "remix": (lambda: rholab.remix(np.eye(2), np.eye(2)), "a GramFactor, got ndarray"),
}


@pytest.mark.parametrize("call, expected", WRONG_TYPE_CALLS.values(), ids=WRONG_TYPE_CALLS.keys())
def test_an_argument_of_the_wrong_type_raises_validation_error(call, expected):
    with pytest.raises(rholab.ValidationError, match=f"^expected {expected}$"):
        call()
