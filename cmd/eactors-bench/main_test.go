package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestScaleInt(t *testing.T) {
	if got := scaleInt(1000, 0.5, 1); got != 500 {
		t.Fatalf("scaleInt = %d", got)
	}
	if got := scaleInt(1000, 0.0001, 50); got != 50 {
		t.Fatalf("floor not applied: %d", got)
	}
}

func TestScaleDur(t *testing.T) {
	if got := scaleDur(10*time.Second, 0.5, time.Second); got != 5*time.Second {
		t.Fatalf("scaleDur = %v", got)
	}
	if got := scaleDur(10*time.Second, 0.001, time.Second); got != time.Second {
		t.Fatalf("floor not applied: %v", got)
	}
}

func TestScaleClients(t *testing.T) {
	got := scaleClients([]int{100, 200, 1000}, 0.1)
	want := []int{10, 20, 100}
	if len(got) != len(want) {
		t.Fatalf("scaleClients = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scaleClients = %v, want %v", got, want)
		}
	}
	// Deduplication and even-rounding at tiny scales.
	got = scaleClients([]int{100, 200, 300}, 0.001)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("tiny scaleClients = %v", got)
	}
}

func TestMeasureWindow(t *testing.T) {
	measureOverride = 0
	if got := measureWindow(3 * time.Second); got != 3*time.Second {
		t.Fatalf("no-override = %v", got)
	}
	measureOverride = 7 * time.Second
	defer func() { measureOverride = 0 }()
	if got := measureWindow(3 * time.Second); got != 7*time.Second {
		t.Fatalf("override = %v", got)
	}
}

func TestRunFigureUnknown(t *testing.T) {
	if _, err := runFigure("99", 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunFigure1Tiny(t *testing.T) {
	rows, err := runFigure("1", 0.000001)
	if err != nil {
		t.Fatalf("runFigure(1): %v", err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16 (8 thread counts x 2 series)", len(rows))
	}
}

func TestRunArgValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing -fig accepted")
	}
	if err := run([]string{"-fig", "1", "-scale", "-1"}); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestRunPlot(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "1", "-scale", "0.000001", "-plot", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fig1.svg"))
	if err != nil {
		t.Fatalf("fig1.svg: %v", err)
	}
	if len(svg) == 0 || svg[0] != '<' {
		t.Fatalf("fig1.svg is not SVG: %.40q", svg)
	}
}
