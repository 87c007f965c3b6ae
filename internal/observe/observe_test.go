package observe

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheckNeedsMetrics: every sink the flags arm is served only on the
// -metrics endpoint, so arming one without it is a usage error that
// names -metrics; with -metrics every combination parses.
func TestCheckNeedsMetrics(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-stats", "0"}, true},
		{[]string{"-metrics", "127.0.0.1:0"}, true},
		{[]string{"-metrics", "127.0.0.1:0", "-trace", "-profile"}, true},
		{[]string{"-metrics", "127.0.0.1:0", "-trace", "-trace-sample", "8", "-profile"}, true},
		{[]string{"-trace"}, false},
		{[]string{"-trace-sample", "8"}, false},
		{[]string{"-profile"}, false},
		{[]string{"-trace", "-profile", "-stats", "1s"}, false},
	} {
		fs := flag.NewFlagSet("server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("parse %q: %v", tc.args, err)
		}
		err := f.Check()
		switch {
		case tc.ok && err != nil:
			t.Errorf("Check(%q) = %v, want nil", tc.args, err)
		case !tc.ok && err == nil:
			t.Errorf("Check(%q) = nil, want an error", tc.args)
		case !tc.ok && !strings.Contains(err.Error(), "-metrics"):
			t.Errorf("Check(%q) = %q, want it to name -metrics", tc.args, err)
		}
	}
}
