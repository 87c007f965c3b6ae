// Package bench is the reproduction harness for the paper's evaluation:
// one generator per figure (Figures 1 and 11-17), each returning the
// same series the paper plots. The CLI (cmd/eactors-bench) runs
// paper-scale sweeps; bench_test.go runs reduced ones. DESIGN.md maps
// figures to generators, EXPERIMENTS.md records paper-vs-measured.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"
)

// Row is one measured point of one figure's series.
type Row struct {
	// Figure identifies the experiment ("fig1", "fig11a", ...).
	Figure string
	// Series is the plotted line ("EA/3", "Native", "pthread_mutex").
	Series string
	// XLabel and X are the x-axis name and value.
	XLabel string
	X      float64
	// Value and Unit are the measurement.
	Value float64
	Unit  string
}

// PrintTable renders rows grouped by figure and series, one x per line,
// in the shape of the paper's plots.
func PrintTable(w io.Writer, rows []Row) {
	sorted := append([]Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Figure != b.Figure {
			return a.Figure < b.Figure
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Series < b.Series
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	lastFig := ""
	for _, r := range sorted {
		if r.Figure != lastFig {
			fmt.Fprintf(tw, "\n== %s ==\n", r.Figure)
			lastFig = r.Figure
		}
		fmt.Fprintf(tw, "%s\t%s=%g\t%.3f\t%s\n", r.Series, r.XLabel, r.X, r.Value, r.Unit)
	}
	tw.Flush()
}

// WriteCSV renders rows as CSV (figure,series,x_label,x,value,unit) for
// plotting tools.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "series", "x_label", "x", "value", "unit"}); err != nil {
		return err
	}
	for _, r := range rows {
		record := []string{
			r.Figure, r.Series, r.XLabel,
			strconv.FormatFloat(r.X, 'g', -1, 64),
			strconv.FormatFloat(r.Value, 'g', -1, 64),
			r.Unit,
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
