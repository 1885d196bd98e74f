"""Table 11: breakdown differences, Scenario 1 (the smaller population).

Same comparison as Table 4 at the base population (paper: 38K UEs).
The paper's point — and the shape reproduced here — is that Scenario 1
and Scenario 2 agree: the model's fidelity does not depend on the
population size.
"""

from _macro import assert_macro_shape, compare_methods, run_macro_table
from conftest import write_result
from repro.trace import DeviceType


def test_table11_macroscopic_scenario1(benchmark, scenario1, scenario2):
    text = benchmark.pedantic(
        run_macro_table,
        args=(scenario1, f"Table 11 (Scenario 1, {scenario1['num_ues']} UEs)"),
        rounds=1,
        iterations=1,
    )
    write_result("table11_macro_s1", text)
    assert_macro_shape(scenario1)

    # Scenario agreement: our method's error is population-size stable.
    for dt in DeviceType:
        e1, e2 = (
            compare_methods(s, dt, ("ours",))[1]["ours"].macro_max_error
            for s in (scenario1, scenario2)
        )
        assert abs(e1 - e2) < 0.10, f"{dt.name}: scenario drift {e1:.3f} vs {e2:.3f}"
