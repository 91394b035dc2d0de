"""The formats ``report`` emits, apart from the scoring code, so that the
command line can offer them without importing ``report`` at start-up."""

REPORT_FORMATS = ("table-text", "csv", "structured")
