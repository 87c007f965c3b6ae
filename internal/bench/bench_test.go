package bench

import (
	"strings"
	"testing"
	"time"

	"github.com/eactors/eactors-go/internal/sgx"
)

// The harness tests run miniature versions of every figure sweep and
// assert the paper's qualitative shapes, not absolute numbers.

func TestFig1Shape(t *testing.T) {
	rows, err := Fig1MutexStack(Fig1Config{
		Elements: 5_000,
		Threads:  []int{2, 4},
		Costs:    sgx.DefaultCostModel(),
	})
	if err != nil {
		t.Fatalf("Fig1MutexStack: %v", err)
	}
	for _, threads := range []float64{2, 4} {
		pthread, ok1 := SeriesValue(rows, "fig1", "pthread_mutex", threads)
		sgxTime, ok2 := SeriesValue(rows, "fig1", "sgx_mutex", threads)
		if !ok1 || !ok2 {
			t.Fatalf("missing series at threads=%v", threads)
		}
		// The paper's gap is orders of magnitude; require at least 3x in
		// the miniature run.
		if sgxTime < 3*pthread {
			t.Errorf("threads=%v: sgx_mutex %.4fs not >> pthread %.4fs", threads, sgxTime, pthread)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	rows, err := Fig11PingPong(Fig11Config{
		// Enough pairs that startup and first-wakeup costs amortise;
		// at a few hundred pairs the EA-vs-Native comparison at 16 B is
		// scheduling noise.
		Pairs: 2000,
		Sizes: []int{16, 64 << 10},
		Costs: sgx.DefaultCostModel(),
	})
	if err != nil {
		t.Fatalf("Fig11PingPong: %v", err)
	}
	for _, size := range []float64{16, 64 << 10} {
		native, _ := SeriesValue(rows, "fig11a", "Native", size)
		ea, _ := SeriesValue(rows, "fig11a", "EA", size)
		eaEnc, _ := SeriesValue(rows, "fig11a", "EA-ENC", size)
		if ea <= 0 || native <= 0 || eaEnc <= 0 {
			t.Fatalf("size=%v: missing measurements (%v, %v, %v)", size, native, ea, eaEnc)
		}
		// EA beats Native everywhere in the paper. On a 1-core host the
		// EA hop includes a goroutine park/unpark, which for tiny
		// payloads sits at the same magnitude as the native call's
		// transition charge — allow noise-level parity there, and
		// require a strict win once payload copies matter.
		limit := native
		if size <= 1024 {
			limit = 1.25 * native
		}
		if ea >= limit {
			t.Errorf("size=%v: EA %.4fs vs Native %.4fs exceeds tolerance", size, ea, native)
		}
	}
	// Encryption costs: at large payloads EA-ENC is clearly slower than
	// EA but still faster than Native (the paper reports ~10x below EA,
	// >= 3x above native in throughput).
	eaBig, _ := SeriesValue(rows, "fig11b", "EA", 64<<10)
	encBig, _ := SeriesValue(rows, "fig11b", "EA-ENC", 64<<10)
	nativeBig, _ := SeriesValue(rows, "fig11b", "Native", 64<<10)
	if !(encBig < eaBig && encBig > nativeBig) {
		t.Errorf("throughput ordering at 64K: EA=%.1f EA-ENC=%.1f Native=%.1f", eaBig, encBig, nativeBig)
	}
}

func TestSMCShape(t *testing.T) {
	cfg := SMCConfig{
		Figure:     "fig12",
		ShortDims:  []int{1},
		LongDims:   []int{1000},
		PartiesAB:  []int{3},
		PartySweep: []int{3},
		PartyDims:  []int{1},
		Rounds:     200,
		Costs:      sgx.DefaultCostModel(),
	}
	rows, err := FigSMC(cfg)
	if err != nil {
		t.Fatalf("FigSMC: %v", err)
	}
	ecShort, _ := SeriesValue(rows, "fig12a", "EC/3", 1)
	eaShort, _ := SeriesValue(rows, "fig12a", "EA/3", 1)
	modelShort, _ := SeriesValue(rows, "fig12a", "EA/3*", 1)
	if ecShort <= 0 || eaShort <= 0 || modelShort <= 0 {
		t.Fatalf("missing SMC points: EC=%v EA=%v EA*=%v", ecShort, eaShort, modelShort)
	}
	// Short vectors: EA (pipeline model) clearly ahead — transition
	// savings plus party-parallelism dominate (Figure 12a).
	if modelShort <= ecShort {
		t.Errorf("dim=1: EA* %.0f req/s not above EC %.0f req/s", modelShort, ecShort)
	}
	// Long vectors: the gap closes (paper: 8%% at 1000 elements,
	// negligible beyond 2000) because the trusted RNG dominates.
	ecLong, _ := SeriesValue(rows, "fig12b", "EC/3", 1000)
	modelLong, _ := SeriesValue(rows, "fig12b", "EA/3*", 1000)
	shortRatio := modelShort / ecShort
	longRatio := modelLong / ecLong
	if longRatio >= shortRatio {
		t.Errorf("gap did not close with vector size: short ratio %.2f, long ratio %.2f", shortRatio, longRatio)
	}
}

func TestFig14Small(t *testing.T) {
	rows, err := Fig14Scalability(Fig14Config{
		Clients:     []int{8},
		Deployments: []string{"JBD2", "EA/3"},
		Warmup:      300 * time.Millisecond,
		Measure:     time.Second,
	})
	if err != nil {
		t.Fatalf("Fig14Scalability: %v", err)
	}
	for _, series := range []string{"JBD2", "EA/3"} {
		v, ok := SeriesValue(rows, "fig14", series, 8)
		if !ok || v <= 0 {
			t.Errorf("series %s: throughput %v", series, v)
		}
	}
}

func TestFig15Small(t *testing.T) {
	rows, err := Fig15GroupChat(Fig15Config{
		Participants: []int{4},
		Warmup:       300 * time.Millisecond,
		Measure:      time.Second,
	})
	if err != nil {
		t.Fatalf("Fig15GroupChat: %v", err)
	}
	for _, series := range []string{"EJB", "JBD2", "EA/trusted", "EA/untrusted"} {
		v, ok := SeriesValue(rows, "fig15", series, 4)
		if !ok || v <= 0 {
			t.Errorf("series %s: throughput %v", series, v)
		}
	}
}

func TestFig16Small(t *testing.T) {
	rows, err := Fig16EnclaveCount(Fig16Config{
		Enclaves: []int{1, 2},
		Clients:  8,
		Warmup:   300 * time.Millisecond,
		Measure:  time.Second,
	})
	if err != nil {
		t.Fatalf("Fig16EnclaveCount: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Value <= 0 {
			t.Errorf("enclaves=%v: throughput %v", r.X, r.Value)
		}
	}
}

func TestFig17Small(t *testing.T) {
	rows, err := Fig17TrustedOverhead(Fig17Config{
		Deployments: []string{"EA/3"},
		Clients:     8,
		Warmup:      300 * time.Millisecond,
		Measure:     time.Second,
	})
	if err != nil {
		t.Fatalf("Fig17TrustedOverhead: %v", err)
	}
	trusted, ok1 := SeriesValue(rows, "fig17", "EA/3/trusted", 1)
	untrusted, ok2 := SeriesValue(rows, "fig17", "EA/3/untrusted", 0)
	if !ok1 || !ok2 || trusted <= 0 || untrusted <= 0 {
		t.Fatalf("missing rows: trusted=%v untrusted=%v", trusted, untrusted)
	}
}

func TestFigKVSmall(t *testing.T) {
	rows, err := FigKVShardScaling(FigKVConfig{
		Shards:     []int{1, 2},
		Clients:    []int{4},
		Keys:       256,
		ValueBytes: 64,
		GetRatio:   0.9,
		Trusted:    true,
		Warmup:     300 * time.Millisecond,
		Measure:    time.Second,
	})
	if err != nil {
		t.Fatalf("FigKVShardScaling: %v", err)
	}
	for _, series := range []string{"shards=1", "shards=2"} {
		v, ok := SeriesValue(rows, "figkv", series, 4)
		if !ok || v <= 0 {
			t.Errorf("series %s: throughput %v", series, v)
		}
	}
}

func TestPrintTable(t *testing.T) {
	rows := []Row{
		{Figure: "figX", Series: "A", XLabel: "n", X: 1, Value: 10, Unit: "req/s"},
		{Figure: "figX", Series: "B", XLabel: "n", X: 1, Value: 20, Unit: "req/s"},
	}
	var sb strings.Builder
	PrintTable(&sb, rows)
	out := sb.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "req/s") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	rows := []Row{
		{Figure: "figY", Series: "S", XLabel: "n", X: 2, Value: 3.5, Unit: "req/s"},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "figure,series,x_label,x,value,unit") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, "figY,S,n,2,3.5,req/s") {
		t.Fatalf("missing row: %s", out)
	}
}

// SeriesValue finds the value of a (figure, series, x) point; ok is
// false when absent. Tests use it to check shape properties.
func SeriesValue(rows []Row, figure, series string, x float64) (float64, bool) {
	for _, r := range rows {
		if r.Figure == figure && r.Series == series && r.X == x {
			return r.Value, true
		}
	}
	return 0, false
}
