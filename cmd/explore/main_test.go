package main

import (
	"strings"
	"testing"
)

// TestRunCheckpointsUsage pins the -checkpoints validation: values the
// engine would silently ignore (a negative count, or positioning
// without the state cache it needs) are usage errors, while the
// documented configuration runs.
func TestRunCheckpointsUsage(t *testing.T) {
	base := cliConfig{
		prog: "account", params: "depositors=2,deposits=1",
		max: 200, bound: -1, vbound: -1, tbound: -1, workers: 1,
		por: true, jsonOut: true,
	}
	for _, tc := range []struct {
		name        string
		checkpoints int
		stateCache  bool
		wantErr     string
	}{
		{"negative", -1, true, "negative"},
		{"no-statecache", 4, false, "needs -statecache"},
		{"accepted", 4, true, ""},
	} {
		cfg := base
		cfg.checkpoints, cfg.stateCache = tc.checkpoints, tc.stateCache
		err := run(cfg)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}
}
