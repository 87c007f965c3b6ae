// Command eactors-bench regenerates the paper's evaluation figures
// (Figure 1 and Figures 11-17) plus the KV shard-scaling figure
// (-fig kv). Each figure has a sweep matching the paper's parameters;
// -scale shrinks iteration counts and windows for quick runs on small
// machines.
//
// Usage:
//
//	eactors-bench -fig 1            # Figure 1 (mutex stack)
//	eactors-bench -fig 12 -scale 0.1
//	eactors-bench -all -scale 0.05 -plot ./figures
//	eactors-bench -plot ./figures < results_all.csv
//
// -plot DIR writes one SVG line chart per figure: of the rows just
// measured with -fig or -all, or, with neither, of the -format csv
// output read from stdin.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/eactors/eactors-go/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eactors-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eactors-bench", flag.ContinueOnError)
	fig := fs.String("fig", "", "figure to reproduce: 1, 11, 12, 13, 14, 15, 16, 17, kv")
	all := fs.Bool("all", false, "run every figure")
	scale := fs.Float64("scale", 1.0, "scale iteration counts and measure windows (1.0 = paper scale)")
	measure := fs.Duration("measure", 0, "override the steady-state measure window of the messaging figures")
	format := fs.String("format", "table", "output format: table or csv")
	plot := fs.String("plot", "", "write one SVG per figure into this directory (without -fig/-all: of a CSV read from stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("-format must be table or csv")
	}
	measureOverride = *measure
	if !*all && *fig == "" {
		if *plot == "" {
			fs.Usage()
			return fmt.Errorf("pass -fig N, -all or -plot DIR")
		}
		rows, err := bench.ParseCSV(os.Stdin)
		if err != nil {
			return err
		}
		return writePlots(*plot, rows)
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive")
	}

	figures := []string{*fig}
	if *all {
		figures = []string{"1", "11", "12", "13", "14", "15", "16", "17", "kv"}
	}

	fmt.Fprintf(os.Stderr, "eactors-bench: GOMAXPROCS=%d scale=%g\n", runtime.GOMAXPROCS(0), *scale)
	var rows []bench.Row
	for _, f := range figures {
		start := time.Now()
		r, err := runFigure(f, *scale)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
		fmt.Fprintf(os.Stderr, "figure %s done in %v\n", f, time.Since(start).Round(time.Millisecond))
		rows = append(rows, r...)
	}
	if *plot != "" {
		if err := writePlots(*plot, rows); err != nil {
			return err
		}
	}
	if *format == "csv" {
		return bench.WriteCSV(os.Stdout, rows)
	}
	bench.PrintTable(os.Stdout, rows)
	return nil
}

// logScale marks the figures the paper plots with a log-scale y axis.
var logScale = map[string]bool{"fig1": true, "fig14": true}

// writePlots renders one SVG per figure in rows into dir.
func writePlots(dir string, rows []bench.Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, figure := range bench.Figures(rows) {
		path := filepath.Join(dir, figure+".svg")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = bench.RenderSVG(f, figure, rows, bench.PlotOptions{LogY: logScale[figure]})
		closeErr := f.Close()
		if err != nil {
			return fmt.Errorf("render %s: %w", figure, err)
		}
		if closeErr != nil {
			return closeErr
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// measureOverride, when non-zero, replaces the scaled measure window of
// the messaging figures.
var measureOverride time.Duration

func measureWindow(scaled time.Duration) time.Duration {
	if measureOverride > 0 {
		return measureOverride
	}
	return scaled
}

// scaleInt shrinks an iteration count, keeping it at least lo.
func scaleInt(n int, scale float64, lo int) int {
	v := int(float64(n) * scale)
	if v < lo {
		return lo
	}
	return v
}

func scaleDur(d time.Duration, scale float64, lo time.Duration) time.Duration {
	v := time.Duration(float64(d) * scale)
	if v < lo {
		return lo
	}
	return v
}

// scaleClients shrinks a client sweep proportionally, deduplicating.
func scaleClients(clients []int, scale float64) []int {
	out := make([]int, 0, len(clients))
	last := -1
	for _, c := range clients {
		v := scaleInt(c, scale, 4)
		if v%2 != 0 {
			v++
		}
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}

func runFigure(fig string, scale float64) ([]bench.Row, error) {
	switch strings.TrimPrefix(fig, "fig") {
	case "1":
		cfg := bench.DefaultFig1()
		cfg.Elements = scaleInt(cfg.Elements, scale, 1000)
		return bench.Fig1MutexStack(cfg)
	case "11":
		cfg := bench.DefaultFig11()
		cfg.Pairs = scaleInt(cfg.Pairs, scale, 100)
		return bench.Fig11PingPong(cfg)
	case "12", "13":
		cfg := bench.DefaultSMC(fig == "13" || fig == "fig13")
		cfg.Rounds = scaleInt(cfg.Rounds, scale, 50)
		return bench.FigSMC(cfg)
	case "14":
		cfg := bench.DefaultFig14()
		cfg.Clients = scaleClients(cfg.Clients, scale)
		cfg.Measure = measureWindow(scaleDur(cfg.Measure, scale, time.Second))
		return bench.Fig14Scalability(cfg)
	case "15":
		cfg := bench.DefaultFig15()
		cfg.Participants = scaleClients(cfg.Participants, scale)
		cfg.Measure = measureWindow(scaleDur(cfg.Measure, scale, time.Second))
		return bench.Fig15GroupChat(cfg)
	case "16":
		cfg := bench.DefaultFig16()
		cfg.Clients = scaleInt(cfg.Clients, scale, 8)
		cfg.Measure = measureWindow(scaleDur(cfg.Measure, scale, time.Second))
		return bench.Fig16EnclaveCount(cfg)
	case "17":
		cfg := bench.DefaultFig17()
		cfg.Clients = scaleInt(cfg.Clients, scale, 8)
		cfg.Measure = measureWindow(scaleDur(cfg.Measure, scale, time.Second))
		return bench.Fig17TrustedOverhead(cfg)
	case "kv":
		cfg := bench.DefaultFigKV()
		cfg.Keys = scaleInt(cfg.Keys, scale, 256)
		cfg.Measure = measureWindow(scaleDur(cfg.Measure, scale, time.Second))
		return bench.FigKVShardScaling(cfg)
	default:
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
}
