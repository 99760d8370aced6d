import pytest

from dualfem.errors import NonconvergenceError, in_stage


def test_in_stage_names_the_stage_and_keeps_the_error():
    error = NonconvergenceError("Newton did not converge", increments=[0.5])
    with pytest.raises(NonconvergenceError) as info:
        with in_stage(3):
            raise error
    assert info.value is error
    assert str(error) == "stage 3 failed: Newton did not converge"
    assert error.increments == [0.5]
    # an exception that is not the package's passes as it is
    with pytest.raises(ZeroDivisionError, match="^division by zero$"):
        with in_stage(1):
            1 / 0
