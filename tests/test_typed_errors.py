"""Each typed error of an input check, raised by the smallest input that
reaches it: the error type, and the exit code where the CLI reaches it."""

import json

import numpy as np
import pytest

import redconn as rc
from redconn.cli import main
from redconn.errors import ConfigError, DegeneratePairing, PointOffConstraint
from redconn.liealg import LieAlgebra
from redconn.reduction import isotropic_correction_gram


def test_structure_constants_of_the_wrong_shape():
    with pytest.raises(ValueError, match="structure constants have shape"):
        LieAlgebra(2, np.zeros((2, 2, 3))).validate()


def test_structure_constants_not_antisymmetric():
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not antisymmetric"):
        LieAlgebra(2, c).validate()


def test_a_bracket_of_an_element_with_itself_is_not_antisymmetric():
    # [e₀, e₀] = e₁ writes c[0, 0, 1] twice, the second time negated
    with pytest.raises(ConfigError, match="not antisymmetric"):
        rc.algebra_from_json({"dim": 2, "brackets": [[0, 0, [1, 1.0]]]})


def test_stabilizer_of_a_mu_of_the_wrong_length():
    with pytest.raises(ValueError, match="mu must have length 3"):
        rc.stabilizer_algebra(rc.so3(), [0.0, 1.0])


def test_context_at_a_mu_of_the_wrong_length():
    with pytest.raises(ValueError, match="mu must have length 3"):
        rc.build_context(rc.so3(), [0.0, 0.0, 1.0, 0.0])


def test_complement_of_a_basis_of_the_wrong_ambient_dimension():
    with pytest.raises(ValueError, match="wrong ambient dimension"):
        rc.reductive_complement(rc.so3(), np.eye(4)[:, :1])


@pytest.mark.parametrize("name", ["abelian(0)", "abelian(x)"])
def test_a_bad_abelian_dimension(name, tmp_path, capsys):
    with pytest.raises(ConfigError, match="bad abelian dimension"):
        rc.named_algebra(name)
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"group": name, "mu": [1.0]}))
    assert main(["validate", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"


def test_isotropic_correction_of_unequal_dimensions():
    om = rc.omega_gram(rc.so3(), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="equal dimension"):
        isotropic_correction_gram(om, np.eye(6)[:, :1], np.eye(6)[:, 1:3])


def test_isotropic_correction_of_a_non_isotropic_delta():
    # ω pairs the group direction e₀ with the fiber direction e₀* by ±1
    om = rc.omega_gram(rc.so3(), np.array([0.0, 0.0, 1.0]))
    delta = np.eye(6)[:, [0, 3]]
    with pytest.raises(DegeneratePairing, match="not isotropic"):
        isotropic_correction_gram(om, np.eye(6)[:, [1, 4]], delta)


def test_lift_derivative_along_a_direction_with_a_fiber_part():
    ctx = rc.build_context(rc.so3(), np.array([0.0, 0.0, 1.0]))
    geom = rc.SigmaGeometry(ctx, rc.default_chart(ctx))
    K = geom.kernels(np.zeros(geom.chart.dim), geom.identity)
    with pytest.raises(PointOffConstraint, match="not tangent to the level set"):
        geom.lift_derivatives(K, np.eye(6)[3:4])


def test_symplectic_form_on_a_tangent_of_the_wrong_length():
    with pytest.raises(ValueError, match="tangent vector must have length 6"):
        rc.symplectic_form(rc.so3(), np.zeros(3), np.zeros(5), np.zeros(6))


def test_every_library_error_is_a_reduction_error():
    # a caller catches every failure the library types as one ReductionError
    from redconn import errors

    types = [t for t in vars(errors).values()
             if isinstance(t, type) and t.__module__ == errors.__name__]
    assert len(types) == 10 and all(issubclass(t, rc.ReductionError) for t in types)
