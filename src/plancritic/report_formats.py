"""The formats ``report`` emits, apart from the scoring code, so that the
command line can offer them without importing the refinement loop."""

REPORT_FORMATS = ("table-text", "csv", "structured")
