import pytest
from hypothesis import settings

from tamerep.chars import TameCharacter
from tamerep.ff import make_field
from tamerep.induce import build_residual_rep
from tamerep.linalg import Matrix, nullspace

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def F5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def F13():
    return make_field(13, 1)


@pytest.fixture(scope="session")
def rep_o_8_19_17():
    return build_residual_rep(TameCharacter(8, 19, 17, 1), 13)


@pytest.fixture(scope="session")
def rep_s_8_19_17():
    return build_residual_rep(TameCharacter(8, 19, 17, -1), 13)


def _densified_nullspace(field, rows, width):
    """Oracle for oracles.sparse_nullspace: write the dict rows out as dense
    rows of field elements and take the dense reduced-echelon nullspace."""
    zero = field.zero
    dense = []
    for coeff in rows:
        if not coeff:
            continue
        row = [zero] * width
        for idx, v in coeff.items():
            row[idx] = v
        dense.append(row)
    if not dense:
        return [tuple(field.one if i == j else zero for i in range(width)) for j in range(width)]
    return nullspace(Matrix(field, dense))


@pytest.fixture(scope="session")
def densified_nullspace():
    return _densified_nullspace
