"""The suite's own settings: a failing property test is reported with its
falsifying example under the project's warning filters."""

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(n):
    assert n < 5
"""


def test_failing_property_reports_its_example(pytester, pytestconfig):
    """``filterwarnings = ["error"]`` once turned a warning that Hypothesis's
    plugin raises while it reports a failure into an ``INTERNALERROR`` with
    no example."""
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(FAILING_PROPERTY)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
    result.assert_outcomes(failed=1)
