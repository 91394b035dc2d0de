"""Each format ``report`` emits and the files it writes, apart from the scoring
code, so that the command line reads them without importing ``report``."""

REPORT_FORMATS = {"table-text": ("report.txt",), "csv": ("steps.csv", "summary.txt"),
                  "structured": ("metrics.json",)}
