import pytest

# When a hypothesis test fails, the hypothesis plugin's report hook imports
# libcst, which uses the deprecated mypy_extensions.TypedDict; under -W error
# that warning ends the run in INTERNALERROR instead of printing the falsifying
# example.  pytest ranks a command-line -W above the ini filterwarnings list,
# but a marker on the item above both, so the exception is a marker.
_REPORT_HOOK_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(_REPORT_HOOK_WARNING))
