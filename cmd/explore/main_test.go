package main

import (
	"strings"
	"testing"
)

// TestRunCheckpointsUsage pins the -checkpoints and -statecachesize
// validation: values the engine would silently ignore (a negative
// count, positioning without the state cache it needs, a negative
// cache size) are usage errors, while the documented configuration
// runs.
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
		cacheSize   int
		wantErr     string
	}{
		{"negative", -1, true, 0, "negative"},
		{"no-statecache", 4, false, 0, "needs -statecache"},
		{"negative-cachesize", 4, true, -1, "-statecachesize -1 is negative"},
		{"accepted", 4, true, 0, ""},
	} {
		cfg := base
		cfg.checkpoints, cfg.stateCache, cfg.cacheSize = tc.checkpoints, tc.stateCache, tc.cacheSize
		err := run(cfg)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}
}
