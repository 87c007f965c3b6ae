package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"github.com/eactors/eactors-go/internal/core"
)

// ArtifactDirEnv names the directory the CI chaos job points at: when a
// run fails, the harness drops post-mortem artifacts there (the metrics
// exposition and the sampled causal traces) and the workflow uploads the
// directory. Unset means no artifacts — local runs stay clean unless
// asked.
const ArtifactDirEnv = "CHAOS_ARTIFACT_DIR"

// dumpArtifacts writes the failing run's metrics and trace snapshot to
// $CHAOS_ARTIFACT_DIR as <label>-seed<seed>-metrics.txt (the /metrics
// text: parks, failed actors, faults injected, traffic) and
// <label>-seed<seed>-traces.json. Everything is best-effort: artifact
// trouble must never mask the failure that triggered it.
func dumpArtifacts(label string, seed uint64, rt *core.Runtime) {
	dir := os.Getenv(ArtifactDirEnv)
	if dir == "" || rt == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	prefix := fmt.Sprintf("%s-seed%d", label, seed)
	if reg := rt.Telemetry(); reg != nil {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		_ = os.WriteFile(filepath.Join(dir, prefix+"-metrics.txt"), buf.Bytes(), 0o644)
	}
	if tr := rt.Tracer(); tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err == nil {
			_ = os.WriteFile(filepath.Join(dir, prefix+"-traces.json"), buf.Bytes(), 0o644)
		}
	}
}
