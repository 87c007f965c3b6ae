package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// This file renders recorded rows as SVG line charts — one chart per
// figure, one polyline per series — so the harness can regenerate the
// paper's figures as images, not just tables
// (cmd/eactors-bench -plot renders them, from a run or from the CSV that
// -format csv emits).

// svgPalette holds the series colours (colour-blind-safe defaults).
var svgPalette = []string{
	"#4477AA", "#EE6677", "#228833", "#CCBB44", "#66CCEE", "#AA3377", "#BBBBBB",
}

const (
	svgW       = 640
	svgH       = 420
	svgMarginL = 70
	svgMarginR = 160
	svgMarginT = 40
	svgMarginB = 56
)

// PlotOptions configures RenderSVG.
type PlotOptions struct {
	// Title overrides the default (the figure name).
	Title string
	// LogY plots the y axis in log10 (the paper's Figures 1 and 14).
	LogY bool
}

// RenderSVG renders all rows belonging to one figure as an SVG chart.
func RenderSVG(w io.Writer, figure string, rows []Row, opts PlotOptions) error {
	type point struct{ x, y float64 }
	series := map[string][]point{}
	var names []string
	unit, xLabel := "", ""
	for _, r := range rows {
		if r.Figure != figure {
			continue
		}
		if _, ok := series[r.Series]; !ok {
			names = append(names, r.Series)
		}
		series[r.Series] = append(series[r.Series], point{r.X, r.Value})
		unit, xLabel = r.Unit, r.XLabel
	}
	if len(series) == 0 {
		return fmt.Errorf("bench: no rows for figure %q", figure)
	}
	sort.Strings(names)

	// Bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, pts := range series {
		for _, p := range pts {
			minX, maxX = math.Min(minX, p.x), math.Max(maxX, p.x)
			y := p.y
			if opts.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}
	// Pad the y range slightly.
	pad := (maxY - minY) * 0.05
	minY, maxY = minY-pad, maxY+pad

	plotW := float64(svgW - svgMarginL - svgMarginR)
	plotH := float64(svgH - svgMarginT - svgMarginB)
	tx := func(x float64) float64 {
		return svgMarginL + (x-minX)/(maxX-minX)*plotW
	}
	ty := func(y float64) float64 {
		if opts.LogY {
			y = math.Log10(math.Max(y, 1e-12))
		}
		return svgMarginT + plotH - (y-minY)/(maxY-minY)*plotH
	}

	title := opts.Title
	if title == "" {
		title = figure
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`, svgW, svgH)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, svgW, svgH)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-size="16" font-weight="bold">%s</text>`, svgMarginL, escapeXML(title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		svgMarginL, svgMarginT, svgMarginL, svgH-svgMarginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		svgMarginL, svgH-svgMarginB, svgW-svgMarginR, svgH-svgMarginB)

	// Ticks: 5 per axis.
	for i := 0; i <= 4; i++ {
		frac := float64(i) / 4
		x := minX + frac*(maxX-minX)
		px := tx(x)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`,
			px, svgH-svgMarginB, px, svgH-svgMarginB+5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`,
			px, svgH-svgMarginB+20, formatTick(x))

		yv := minY + frac*(maxY-minY)
		py := svgMarginT + plotH - frac*plotH
		label := yv
		if opts.LogY {
			label = math.Pow(10, yv)
		}
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`,
			svgMarginL-5, py, svgMarginL, py)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`,
			svgMarginL-8, py+4, formatTick(label))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#dddddd"/>`,
			svgMarginL, py, svgW-svgMarginR, py)
	}

	// Axis labels.
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="12" text-anchor="middle">%s</text>`,
		float64(svgMarginL)+plotW/2, svgH-12, escapeXML(xLabel))
	fmt.Fprintf(&b, `<text x="16" y="%.1f" font-size="12" text-anchor="middle" transform="rotate(-90 16 %.1f)">%s</text>`,
		float64(svgMarginT)+plotH/2, float64(svgMarginT)+plotH/2, escapeXML(unit))

	// Series.
	for i, name := range names {
		colour := svgPalette[i%len(svgPalette)]
		pts := append([]point(nil), series[name]...)
		sort.Slice(pts, func(a, b int) bool { return pts[a].x < pts[b].x })
		var path strings.Builder
		for j, p := range pts {
			if j == 0 {
				fmt.Fprintf(&path, "M%.1f,%.1f", tx(p.x), ty(p.y))
			} else {
				fmt.Fprintf(&path, " L%.1f,%.1f", tx(p.x), ty(p.y))
			}
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2"/>`, path.String(), colour)
		for _, p := range pts {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`, tx(p.x), ty(p.y), colour)
		}
		// Legend entry.
		ly := svgMarginT + 8 + i*18
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`,
			svgW-svgMarginR+10, ly, svgW-svgMarginR+30, ly, colour)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12">%s</text>`,
			svgW-svgMarginR+36, ly+4, escapeXML(name))
	}
	b.WriteString(`</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}

// Figures lists the distinct figure names present in rows, sorted.
func Figures(rows []Row) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		if !seen[r.Figure] {
			seen[r.Figure] = true
			out = append(out, r.Figure)
		}
	}
	sort.Strings(out)
	return out
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1_000_000:
		return fmt.Sprintf("%.1fM", v/1_000_000)
	case av >= 10_000:
		return fmt.Sprintf("%.0fk", v/1000)
	case av >= 1000:
		return fmt.Sprintf("%.1fk", v/1000)
	case av >= 10 || av == 0:
		return fmt.Sprintf("%.0f", v)
	case av >= 0.01:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// ParseCSV reads rows previously written by WriteCSV.
func ParseCSV(r io.Reader) ([]Row, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 1 {
		return nil, fmt.Errorf("bench: empty CSV")
	}
	var rows []Row
	for i, line := range lines {
		if i == 0 && strings.HasPrefix(line, "figure,") {
			continue
		}
		fields := strings.Split(strings.TrimSpace(line), ",")
		if len(fields) != 6 {
			return nil, fmt.Errorf("bench: CSV line %d has %d fields", i+1, len(fields))
		}
		var x, v float64
		if _, err := fmt.Sscanf(fields[3], "%g", &x); err != nil {
			return nil, fmt.Errorf("bench: CSV line %d x: %w", i+1, err)
		}
		if _, err := fmt.Sscanf(fields[4], "%g", &v); err != nil {
			return nil, fmt.Errorf("bench: CSV line %d value: %w", i+1, err)
		}
		rows = append(rows, Row{
			Figure: fields[0], Series: fields[1], XLabel: fields[2],
			X: x, Value: v, Unit: fields[5],
		})
	}
	return rows, nil
}
