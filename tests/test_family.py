"""Weight families are arguments: M = 8 and M = 12 interleave in one process
without one run's family or caches reaching the other's results."""

from maassdensity import kuznetsov
from maassdensity.besseltransform import _residue_value, dj_residue_sum
from maassdensity.density import DensityEngine
from maassdensity.kuznetsov import averaged_eigenvalue, total_mass, weight_spectral
from maassdensity.weights import default_family, make_weight_family

M12 = make_weight_family(12)


def test_total_mass_keeps_its_bits_across_an_m12_run():
    before = total_mass(5, c_max=40)
    other = total_mass(5, c_max=40, family=M12)
    after = total_mass(5, c_max=40)
    assert after == before
    assert other != before
    assert total_mass(5, c_max=40, family=M12) == other
    assert total_mass(5, c_max=40, family=default_family()) == before


def test_averaged_eigenvalue_interleaves():
    before = averaged_eigenvalue(2, 5, c_max=40)
    other = averaged_eigenvalue(2, 5, c_max=40, family=M12)
    assert averaged_eigenvalue(2, 5, c_max=40) == before
    assert other != before


def test_spectral_weight_carries_its_family():
    w8, w12 = weight_spectral(11), weight_spectral(11, M12)
    assert w8 != w12
    assert w8 == weight_spectral(11, default_family())
    assert w12.family is M12
    assert kuznetsov._smooth_grid(w8) is not kuznetsov._smooth_grid(w12)


def test_residue_sum_uses_the_passed_family():
    res = dj_residue_sum(2.0, 11, family=M12)
    assert res.value == _residue_value(M12, 2.0, 11)[0]
    assert res.value != dj_residue_sum(2.0, 11).value


def test_density_engine_stores_its_family():
    engine = DensityEngine(5, c_max=20, family=M12)
    assert engine.family is M12 and engine.weight.family is M12
    assert kuznetsov._residue_evaluator(engine.family, engine.T).family is M12
    assert DensityEngine(5, c_max=20).family is default_family()
