"""Experiment harnesses regenerating every figure and table of the paper."""

from repro.experiments.export import fig1_to_csv, fig6_to_csv
from repro.experiments.fig1 import Fig1Result, format_fig1, run_fig1
from repro.experiments.fig6 import Fig6Result, format_fig6, run_fig6
from repro.experiments.timing import (
    SearchCostReport,
    format_timing,
    run_timing,
)
from repro.experiments.table1 import (
    Table1Result,
    Table1Row,
    format_table1,
    run_table1,
)
from repro.experiments.table2 import (
    Table2Result,
    Table2Row,
    format_table2,
    run_table2,
)

__all__ = [
    "Fig1Result",
    "Fig6Result",
    "SearchCostReport",
    "Table1Result",
    "Table1Row",
    "Table2Result",
    "Table2Row",
    "fig1_to_csv",
    "fig6_to_csv",
    "format_fig1",
    "format_fig6",
    "format_table1",
    "format_table2",
    "format_timing",
    "run_fig1",
    "run_fig6",
    "run_table1",
    "run_table2",
    "run_timing",
]
